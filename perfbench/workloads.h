/// \file workloads.h
/// Seeded input generators for the three benchmark workloads.
///
/// Every generator is a pure function of its seed and returns layout
/// libraries that main.cpp writes to GDSII; the program under test only
/// ever sees those files. Shapes are 180 nm-class poly wires inside a
/// 440 x 440 nm cell box, so every flat-flow tile window (a placement's
/// shape extent) fits one 256 x 256 pixel imaging frame at the 800 nm halo
/// and 8 nm pixels, and one SOCS kernel set serves a whole workload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "layout/layer.h"
#include "layout/library.h"

namespace perfbench {

/// Layer of the cell boundaries in the ilt_escalate cells.
inline constexpr opckit::layout::Layer kBoundaryLayer{235, 0};

/// A generated chip: the library (top cell "top") plus its statistics.
struct Chip {
  opckit::layout::Library lib{"chip"};
  std::size_t placements = 0;
  double area_um2 = 0.0;  ///< extent of the drawn geometry
};

/// chip_socs: seeded random-logic chip: vertical lines and horizontal
/// bars in a checkerboard on a jittered 680 nm grid — below the 800 nm
/// halo, so neighbours couple and the correction cache mostly misses.
/// The seed moves every wire inside its cell box and jitters the grid.
Chip make_logic_chip(std::uint64_t seed, int cols, int rows);

/// ilt_escalate: six distinct cells for the cell flow, each drawn
/// inside an 848 x 848 nm cell boundary on kBoundaryLayer: three hard
/// cases of the ILT corpus (a tip-to-tip line-end pair across a 200 nm
/// gap, a 2 x 2 and a 1 x 2 array of 220 nm contacts at 440 nm pitch)
/// and three easy ones (an isolated contact, line ends 320 nm apart, a
/// 660 x 220 nm bar). The cell flow takes a cell's window from its
/// bounding box over all layers, so the boundary leaves ILT the free
/// pixels around the shapes that it needs to beat model OPC. The seed
/// only places the cells (each twice, on a shuffled 4 x 3 grid): the
/// cell flow corrects every distinct cell once, so every seed yields the
/// same tiles.
Chip make_escalation_chip(std::uint64_t seed);

/// daemon_reuse inputs for one client: base chips of three copies of a
/// 4 x 2 checkerboard of lines and bars, drawn from the client's own seed
/// stream. The copies replay within a job, so a chip costs one block to
/// solve and three to replay.
struct Family {
  std::vector<Chip> bases;
};
Family make_family(std::uint64_t seed, int client, int bases);

/// Variant \p k of a family: a copy of one base chip in which the right
/// edge of one cell's shape moves by 2..6 nm in or out. The first
/// cells x 10 x bases variants are all distinct.
Chip make_variant(const Family& family, int k);

}  // namespace perfbench

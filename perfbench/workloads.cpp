#include "workloads.h"

#include <string>
#include <utility>
#include <vector>

#include "layout/cell.h"
#include "layout/layer.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using opckit::geom::Coord;
using opckit::geom::Point;
using opckit::geom::Polygon;
using opckit::geom::Rect;
using opckit::layout::CellRef;

constexpr Coord kBox = 440;  ///< cell box side, nm
constexpr int kBaseCopies = 3;  ///< daemon base chips: copies of one block
const opckit::layout::Layer kLayer = opckit::layout::layers::kPoly;

/// Primitive shapes. Compact L and T shapes (a wire turning inside one
/// cell box) are left out: model OPC turns their inner corners into
/// convex-corner pairs closer than mask_deck_180's 60 nm corner rule,
/// so every job holding one fails the signoff gate.
enum class Kind { kLine, kBar };

Polygon rect_polygon(Coord x0, Coord y0, Coord x1, Coord y1) {
  return Polygon(Rect(x0, y0, x1, y1));
}

/// One primitive of wire width \p w centred in the [0, kBox]^2 box.
Polygon primitive(Kind kind, Coord w) {
  const Coord c0 = (kBox - w) / 2;
  std::vector<Point> pts;
  switch (kind) {
    case Kind::kLine:
      pts = {{c0, 0}, {c0 + w, 0}, {c0 + w, kBox}, {c0, kBox}};
      break;
    case Kind::kBar:
      pts = {{0, c0}, {kBox, c0}, {kBox, c0 + w}, {0, c0 + w}};
      break;
  }
  return Polygon(std::move(pts)).normalized();
}

void add_cell(opckit::layout::Library& lib, const std::string& name,
              const std::vector<Polygon>& shapes) {
  opckit::layout::Cell& cell = lib.cell(name);
  for (const Polygon& p : shapes) cell.add_polygon(kLayer, p);
}

void place(opckit::layout::Library& lib, const std::string& cell, Point at) {
  CellRef ref;
  ref.child = cell;
  ref.transform = opckit::geom::Transform(at);
  lib.cell("top").add_ref(std::move(ref));
}

/// Fisher-Yates shuffle driven by \p rng.
template <typename T>
void shuffle(std::vector<T>& v, opckit::util::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(v[i - 1], v[j]);
  }
}

void finish(Chip& chip) {
  const Rect box = chip.lib.bbox("top");
  chip.area_um2 = static_cast<double>(box.width()) *
                  static_cast<double>(box.height()) * 1e-6;
  chip.placements = chip.lib.at("top").refs().size();
}

/// A cols x rows grid of cells drawn with wire width \p w at a 680 nm
/// pitch. The arrangement is fixed — slot (col, row) holds
/// kinds[(col + row) % kinds.size()] — and the seed only picks each
/// cell's offset inside its box and jitters every origin by up to 20 nm,
/// so chips of different seeds couple the same kinds of neighbours and
/// cost and print alike. The grid is placed \p copies times, stacked
/// more than a halo apart, so the copies replay each other's tiles.
Chip logic_grid(opckit::util::Rng& rng, Coord w, int cols, int rows,
                const std::vector<Kind>& kinds, const std::string& prefix,
                int copies = 1) {
  Chip chip;
  chip.lib.cell("top");
  constexpr Coord kPitch = 680;
  std::vector<std::pair<std::string, Point>> grid;
  for (int row = 0; row < rows; ++row) {
    for (int col = 0; col < cols; ++col) {
      const Kind kind = kinds[static_cast<std::size_t>(col + row) % kinds.size()];
      const std::string name = prefix + std::to_string(row * cols + col);
      const Coord shift = 8 * static_cast<Coord>(rng.uniform_int(-4, 4));
      std::vector<Point> pts = primitive(kind, w).ring();
      for (Point& q : pts) (kind == Kind::kBar ? q.y : q.x) += shift;
      add_cell(chip.lib, name, {Polygon(std::move(pts))});
      const Point at{static_cast<Coord>(col) * kPitch +
                         4 * static_cast<Coord>(rng.uniform_int(-5, 5)),
                     static_cast<Coord>(row) * kPitch +
                         4 * static_cast<Coord>(rng.uniform_int(-5, 5))};
      grid.emplace_back(name, at);
    }
  }
  const Coord stride = static_cast<Coord>(rows) * kPitch + 1000;
  for (int k = 0; k < copies; ++k) {
    for (const auto& [name, at] : grid) {
      place(chip.lib, name, {at.x, at.y + static_cast<Coord>(k) * stride});
    }
  }
  finish(chip);
  return chip;
}

}  // namespace

Chip make_logic_chip(std::uint64_t seed, int cols, int rows) {
  opckit::util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  return logic_grid(rng, 180, cols, rows, {Kind::kLine, Kind::kBar}, "cell");
}

Chip make_escalation_chip(std::uint64_t seed) {
  opckit::util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 2);
  Chip chip;
  chip.lib.cell("top");
  // Cells are named so that the cell flow's sorted order alternates hard
  // and easy: the flow hands each of its 4 workers one contiguous chunk
  // (sizes 2, 2, 1, 1), so the three slow ILT tiles land on different
  // workers.
  const std::vector<std::pair<std::string, std::vector<Polygon>>> cells = {
      {"a_tip_to_tip",
       {rect_polygon(-90, -400, 90, -100), rect_polygon(-90, 100, 90, 400)}},
      {"b_contact", {rect_polygon(-110, -110, 110, 110)}},
      {"c_contact_2x2",
       {rect_polygon(-330, -330, -110, -110), rect_polygon(110, -330, 330, -110),
        rect_polygon(-330, 110, -110, 330), rect_polygon(110, 110, 330, 330)}},
      {"d_line_ends",
       {rect_polygon(-90, -400, 90, -160), rect_polygon(-90, 160, 90, 400)}},
      {"e_contact_pair",
       {rect_polygon(-330, -110, -110, 110), rect_polygon(110, -110, 330, 110)}},
      {"f_short_bar", {rect_polygon(-330, -110, 330, 110)}},
  };
  constexpr Coord kBoundary = 424;  // half side: an 848 nm cell fits one
                                    // 256 px frame at the 600 nm guard
  std::vector<std::string> slots;
  for (const auto& [name, shapes] : cells) {
    add_cell(chip.lib, name, shapes);
    chip.lib.cell(name).add_polygon(
        kBoundaryLayer,
        rect_polygon(-kBoundary, -kBoundary, kBoundary, kBoundary));
    slots.push_back(name);
    slots.push_back(name);
  }
  // The 12 placements, shuffled over a 4 x 3 grid at a 1200 nm pitch:
  // cell boundaries stay 352 nm apart.
  shuffle(slots, rng);
  constexpr Coord kPitch = 1200;
  for (std::size_t k = 0; k < slots.size(); ++k) {
    place(chip.lib, slots[k],
          {static_cast<Coord>(k % 4) * kPitch, static_cast<Coord>(k / 4) * kPitch});
  }
  finish(chip);
  return chip;
}

Family make_family(std::uint64_t seed, int client, int bases) {
  Family fam;
  for (int b = 0; b < bases; ++b) {
    opckit::util::Rng rng(seed * 0x9e3779b97f4a7c15ULL +
                          static_cast<std::uint64_t>(1000 + 10 * client + b));
    fam.bases.push_back(logic_grid(rng, 180, 4, 2,
                                   {Kind::kLine, Kind::kBar},
                                   "f" + std::to_string(client) + "b" +
                                       std::to_string(b) + "c",
                                   kBaseCopies));
  }
  return fam;
}

Chip make_variant(const Family& family, int k) {
  // Variants enumerate (base, cell, edge shift), base fastest, so that a
  // run edits every base chip alike and no two of the first
  // bases x cells x 10 variants coincide; only the base geometry depends
  // on the seed.
  Chip chip;
  const int cells = static_cast<int>(
      family.bases.front().lib.at("top").refs().size() / kBaseCopies);
  const int bases = static_cast<int>(family.bases.size());
  const int base = k % bases;
  const int cell = (k / bases) % cells;
  const int step = (k / (bases * cells)) % 10;  // 0..9 -> +2..+6, -2..-6 nm
  const Coord delta = static_cast<Coord>(2 + step % 5) * (step < 5 ? 1 : -1);
  chip.lib = family.bases[static_cast<std::size_t>(base)].lib;
  const std::string name =
      chip.lib.at("top").refs()[static_cast<std::size_t>(cell)].child;
  opckit::layout::Cell& c = chip.lib.cell(name);
  std::vector<Polygon> shapes(c.shapes(kLayer).begin(), c.shapes(kLayer).end());
  const Coord max_x = shapes.front().bbox().hi.x;
  std::vector<Point> pts = shapes.front().ring();
  for (Point& p : pts) {
    if (p.x == max_x) p.x += delta;
  }
  shapes.front() = Polygon(std::move(pts)).normalized();
  c.clear_layer(kLayer);
  for (const Polygon& p : shapes) c.add_polygon(kLayer, p);
  finish(chip);
  return chip;
}

}  // namespace perfbench

/// \file model.h
/// Model-based OPC: iterative edge correction driven by the imaging model.
///
/// Each iteration simulates the current mask, measures the edge-placement
/// error of every fragment at its design-intent metrology site, and moves
/// the fragment against the error (damped, clamped, snapped to the mask
/// grid). This is the simulate-then-move architecture of production OPC
/// engines of the paper's era; its convergence behaviour is experiment F4
/// and its gain sensitivity is ablation A2.
#pragma once

#include <cstddef>
#include <vector>

#include "core/fragment.h"
#include "litho/simulator.h"
#include "store/result_store.h"

namespace opckit::opc {

/// Default EPE probe half-range (nm along the site normal). One constant
/// shared by the solver loop (ModelOpcSpec::probe_range_nm) and the
/// standalone measure_fragment_epe entry point: when the defaults
/// diverged (120 vs 160), direct metrology silently reported an edge as
/// lost (NaN) at displacements the solver still measured.
inline constexpr double kDefaultProbeRangeNm = 160.0;

/// Model-based OPC configuration.
struct ModelOpcSpec {
  FragmentationSpec fragmentation;
  int max_iterations = 14;
  double gain = 0.6;                ///< fragment move = -gain * EPE
  geom::Coord max_move_per_iter = 16;  ///< nm clamp per iteration
  geom::Coord max_total_offset = 90;   ///< nm clamp on accumulated offset
                                       ///< (must exceed worst line-end
                                       ///< pullback, ~75nm here)
  double epe_tolerance_nm = 1.0;    ///< converged when max|EPE| below this
  double probe_range_nm = kDefaultProbeRangeNm;  ///< EPE search range
                                                 ///< along the normal
  geom::Coord grid_nm = 1;          ///< mask grid (offsets snap to this)
  /// Mask-space constraint: a fragment may move outward only while the
  /// drawn space in front of it stays at least this wide after BOTH sides
  /// take their share — i.e. outward offset <= (space - min_mask_space)/2.
  /// Prevents facing edges from merging and keeps the mask MRC-legal.
  geom::Coord min_mask_space_nm = 140;
  /// Stronger floor for line-end (tip) fragments: an isolated tip-to-tip
  /// gap needs ~0.6 lambda/NA of mask space to print open, far more than
  /// a grating space. Below it the gap bridges and the loop oscillates —
  /// the reason production rule decks carry dedicated tip-to-tip rules.
  geom::Coord min_tip_gap_nm = 220;
  /// Corner-fragment policy. EPE measured right next to a corner reads
  /// the corner-rounding zone, which edge movement cannot square off (no
  /// mask prints a sharp corner at k1 ~ 0.4). Chasing it rails the offset
  /// and destabilizes neighbours, so corner fragments move with a reduced
  /// gain, a tight offset clamp, and are scored against their own spec.
  double corner_gain_scale = 0.4;
  geom::Coord corner_max_offset = 36;
};

/// Per-iteration convergence record. Corner-adjacent metrology sites are
/// tracked separately: their residual is corner rounding, a different
/// physical quantity with its own spec (see F3/T4).
struct OpcIteration {
  int iteration = 0;
  double max_abs_epe_nm = 0.0;         ///< over run/line-end sites
  double rms_epe_nm = 0.0;             ///< over run/line-end sites
  double max_abs_epe_corner_nm = 0.0;  ///< over corner sites
  std::size_t lost_edges = 0;  ///< fragments whose contour was not found
};

/// A warm start for the correction loop: per-fragment seed offsets from a
/// previously solved similar pattern (the pattern library's near-match
/// retrieval). Each fragment whose metrology site lies within
/// \p match_radius_nm of a seed site starts the loop at the seed's offset
/// (clamped to the fragment's own caps) instead of zero. The loop still
/// runs to the usual convergence test, so the EPE guarantee is unchanged
/// — a good seed only removes iterations.
struct WarmStart {
  std::vector<store::WarmSeed> seeds;  ///< layout-frame sites + offsets
  geom::Coord match_radius_nm = 120;   ///< max site distance to adopt a seed
};

/// Model-OPC output.
struct ModelOpcResult {
  std::vector<geom::Polygon> corrected;  ///< final mask polygons
  std::vector<Fragment> fragments;       ///< final fragment offsets
  std::vector<OpcIteration> history;     ///< one record per iteration
  bool converged = false;
  /// Final (site, offset) of every in-window fragment — the warm-start
  /// seeds a future similar tile can be solved from.
  std::vector<store::WarmSeed> seeds;
  /// Fragments whose initial offset came from a warm-start seed.
  std::size_t warm_seeded = 0;

  /// Final-iteration statistics (zeros if the loop never ran).
  const OpcIteration& final_iteration() const { return history.back(); }
};

/// Run model-based OPC on a target polygon set within \p window (targets
/// outside the window still contribute optical context). \p spec_sim must
/// be calibrated (see litho::calibrate_threshold). Targets are normalized
/// internally. Deterministic. \p warm optionally seeds initial fragment
/// offsets from a retrieved similar solution (see WarmStart).
ModelOpcResult run_model_opc(const std::vector<geom::Polygon>& targets,
                             const litho::SimSpec& spec_sim,
                             const geom::Rect& window,
                             const ModelOpcSpec& spec,
                             const WarmStart* warm = nullptr);

/// Measure the EPE of every fragment of \p targets for mask \p mask (no
/// correction applied — metrology only). Used by ORC and the experiments
/// to score uncorrected/rule-corrected masks with the same probes the
/// model loop uses. Returns one EPE (nm, NaN = lost) per fragment.
std::vector<double> measure_fragment_epe(
    const std::vector<geom::Polygon>& targets,
    std::span<const Fragment> fragments,
    const std::vector<geom::Polygon>& mask, const litho::SimSpec& spec_sim,
    const geom::Rect& window, double probe_range_nm = kDefaultProbeRangeNm,
    double defocus_nm = 0.0, double dose = 1.0);

}  // namespace opckit::opc

#include "core/model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/neighborhood.h"
#include "litho/metrology.h"
#include "util/check.h"

namespace opckit::opc {

using geom::Coord;
using geom::Point;
using geom::Polygon;
using geom::Rect;

namespace {

Coord snap(double v, Coord grid) {
  const auto g = static_cast<double>(grid);
  return static_cast<Coord>(std::llround(v / g)) * grid;
}

}  // namespace

std::vector<double> measure_fragment_epe(
    const std::vector<Polygon>& targets, std::span<const Fragment> fragments,
    const std::vector<Polygon>& mask, const litho::SimSpec& spec_sim,
    const Rect& window, double probe_range_nm, double defocus_nm,
    double dose) {
  const litho::Simulator sim(spec_sim, window);
  const litho::Image lat = sim.latent(mask, defocus_nm);
  const double thr = sim.threshold(dose);
  std::vector<double> out;
  out.reserve(fragments.size());
  for (const Fragment& f : fragments) {
    const Polygon& poly = targets[f.polygon];
    out.push_back(litho::edge_placement_error(
        lat, eval_point(poly, f), outward_normal(poly, f), probe_range_nm,
        thr));
  }
  return out;
}

ModelOpcResult run_model_opc(const std::vector<Polygon>& targets,
                             const litho::SimSpec& spec_sim,
                             const Rect& window, const ModelOpcSpec& spec,
                             const WarmStart* warm) {
  OPCKIT_CHECK(spec.max_iterations >= 1);
  OPCKIT_CHECK(spec.gain > 0.0);
  OPCKIT_CHECK(spec.grid_nm >= 1);

  const std::vector<Polygon> polys = merge_targets(targets);
  ModelOpcResult result;
  result.fragments = fragment_polygons(polys, spec.fragmentation);

  // Clamps rounded down to grid multiples so every offset stays on grid.
  const Coord step_clamp = std::max<Coord>(
      spec.grid_nm, spec.max_move_per_iter / spec.grid_nm * spec.grid_nm);
  const Coord total_clamp = std::max<Coord>(
      spec.grid_nm, spec.max_total_offset / spec.grid_nm * spec.grid_nm);

  // Per-fragment outward cap from the mask-space constraint (measured on
  // the drawn layout once; both sides of a space share it equally).
  const Neighborhood hood(polys,
                          2 * total_clamp + spec.min_mask_space_nm + 64);
  std::vector<Coord> outward_cap(result.fragments.size());
  for (std::size_t i = 0; i < result.fragments.size(); ++i) {
    const Fragment& f = result.fragments[i];
    const geom::Edge e = polys[f.polygon].edge(f.edge);
    const geom::Edge sub(e.at(f.t0), e.at(f.t1));
    const Coord space = hood.space_outside(sub, e.outward_normal());
    const Coord floor_nm = f.kind == FragmentKind::kLineEnd
                               ? spec.min_tip_gap_nm
                               : spec.min_mask_space_nm;
    const Coord cap = (space - floor_nm) / 2;
    outward_cap[i] =
        std::clamp<Coord>(cap / spec.grid_nm * spec.grid_nm, 0, total_clamp);
  }

  // Warm start: adopt the nearest seed offset within the match radius as
  // each in-window fragment's initial position. Seeds are hints, never
  // authority — every adopted offset is snapped and clamped exactly as a
  // converging loop would clamp it, and the iteration loop below still
  // measures and corrects from there.
  if (warm != nullptr && !warm->seeds.empty()) {
    const double r = static_cast<double>(warm->match_radius_nm);
    const double r_sq = r * r;
    for (std::size_t i = 0; i < result.fragments.size(); ++i) {
      Fragment& f = result.fragments[i];
      const Point site = eval_point(polys[f.polygon], f);
      if (!window.contains(site)) continue;
      const store::WarmSeed* best = nullptr;
      double best_sq = r_sq;
      for (const store::WarmSeed& s : warm->seeds) {
        const auto dx = static_cast<double>(s.site.x - site.x);
        const auto dy = static_cast<double>(s.site.y - site.y);
        const double d_sq = dx * dx + dy * dy;
        // Strict < keeps the tie-break deterministic: first seed wins.
        if (d_sq < best_sq || (best == nullptr && d_sq <= best_sq)) {
          best = &s;
          best_sq = d_sq;
        }
      }
      if (best == nullptr) continue;
      const bool corner = f.kind == FragmentKind::kCorner;
      const Coord lo_clamp =
          corner ? -std::min(total_clamp, spec.corner_max_offset)
                 : -total_clamp;
      const Coord hi_clamp =
          corner ? std::min(outward_cap[i], spec.corner_max_offset)
                 : outward_cap[i];
      f.offset = std::clamp<Coord>(
          snap(static_cast<double>(best->offset), spec.grid_nm), lo_clamp,
          hi_clamp);
      ++result.warm_seeded;
    }
  }

  const litho::Simulator sim(spec_sim, window);
  const double thr = sim.threshold();

  for (int iter = 0; iter < spec.max_iterations; ++iter) {
    const std::vector<Polygon> mask = apply_offsets(polys, result.fragments);
    const litho::Image lat = sim.latent(mask);

    // Measure every fragment first, then decide: converged masks are left
    // untouched (the recorded statistics describe the returned mask).
    OpcIteration stat;
    stat.iteration = iter;
    double sum_sq = 0.0;
    std::size_t measured = 0;
    std::vector<double> epes(result.fragments.size(),
                             std::numeric_limits<double>::quiet_NaN());

    for (std::size_t i = 0; i < result.fragments.size(); ++i) {
      Fragment& f = result.fragments[i];
      if (f.locked) continue;
      const Polygon& poly = polys[f.polygon];
      const Point site = eval_point(poly, f);
      // Only correct fragments whose metrology site the simulator window
      // actually covers; context-only geometry stays untouched.
      if (!window.contains(site)) {
        f.locked = true;
        continue;
      }
      const double epe = litho::edge_placement_error(
          lat, site, outward_normal(poly, f), spec.probe_range_nm, thr);
      epes[i] = epe;
      if (std::isnan(epe)) {
        ++stat.lost_edges;
        continue;
      }
      if (f.kind == FragmentKind::kCorner) {
        stat.max_abs_epe_corner_nm =
            std::max(stat.max_abs_epe_corner_nm, std::abs(epe));
        continue;
      }
      ++measured;
      sum_sq += epe * epe;
      stat.max_abs_epe_nm = std::max(stat.max_abs_epe_nm, std::abs(epe));
    }
    stat.rms_epe_nm =
        measured ? std::sqrt(sum_sq / static_cast<double>(measured)) : 0.0;
    result.history.push_back(stat);

    if (stat.lost_edges == 0 &&
        stat.max_abs_epe_nm <= spec.epe_tolerance_nm) {
      result.converged = true;
      break;
    }

    for (std::size_t i = 0; i < result.fragments.size(); ++i) {
      Fragment& f = result.fragments[i];
      if (f.locked) continue;
      const double epe = epes[i];
      if (std::isnan(epe)) {
        // Contour lost within the probe range. Disambiguate by the latent
        // intensity at the design edge: printed there means the feature
        // merged/bridged past the probe (pull the mask edge in), dark
        // means it vanished (push out).
        const Point site = eval_point(polys[f.polygon], f);
        const bool printed_at_site =
            lat.sample(static_cast<double>(site.x),
                       static_cast<double>(site.y)) >= thr;
        const Coord push = printed_at_site ? -step_clamp : step_clamp;
        f.offset = std::clamp<Coord>(f.offset + push, -total_clamp,
                                     outward_cap[i]);
        continue;
      }
      // Overprint (positive EPE) pulls the edge inward. Corner fragments
      // respond to the rounding zone, not a movable edge: damp them and
      // pin their travel.
      const bool corner = f.kind == FragmentKind::kCorner;
      const double gain =
          corner ? spec.gain * spec.corner_gain_scale : spec.gain;
      const Coord lo_clamp = corner
                                 ? -std::min(total_clamp,
                                             spec.corner_max_offset)
                                 : -total_clamp;
      const Coord hi_clamp =
          corner ? std::min(outward_cap[i], spec.corner_max_offset)
                 : outward_cap[i];
      const Coord move = std::clamp<Coord>(snap(-gain * epe, spec.grid_nm),
                                           -step_clamp, step_clamp);
      f.offset = std::clamp<Coord>(f.offset + move, lo_clamp, hi_clamp);
    }
  }

  result.corrected = apply_offsets(polys, result.fragments);
  // Export the solved (site, offset) pairs of every in-window fragment:
  // the warm-start seeds for future near-match retrievals of this tile.
  // Sites are on the ORIGINAL drawn edges, so they are stable whether a
  // future solve starts cold or warm.
  for (const Fragment& f : result.fragments) {
    if (f.locked) continue;
    result.seeds.push_back({eval_point(polys[f.polygon], f), f.offset});
  }
  return result;
}

}  // namespace opckit::opc

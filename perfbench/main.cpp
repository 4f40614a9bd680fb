/// perfbench — the opckit chip-turnaround benchmark.
///
///   perfbench --workload chip_socs|ilt_escalate|daemon_reuse --seed N
///             --seconds S --trace 0|1 --out DIR
///
/// Generates the workload's seeded GDSII inputs under DIR, sets the
/// program up (timed, several times), runs the workload's jobs through
/// the public entry points for about S seconds, checks every output, and
/// prints a table followed by one JSON line:
///   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
/// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
/// that records spans around calls into each module (written to
/// DIR/spans.json) and reports the per-layer ledger. Exit status is 0
/// only when every correctness check passed. perfbench/README.md maps
/// each metric to the workload and end-to-end metric it should move.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/flow.h"
#include "core/fragment.h"
#include "core/model.h"
#include "ilt/ilt.h"
#include "layout/gdsii.h"
#include "ledger.h"
#include "lint/lint.h"
#include "litho/fft.h"
#include "litho/raster.h"
#include "litho/resist.h"
#include "litho/simulator.h"
#include "litho/socs.h"
#include "mrc/mrc.h"
#include "pattern/library.h"
#include "service/client.h"
#include "service/server.h"
#include "service/socket.h"
#include "store/result_store.h"
#include "trace/metrics.h"
#include "trace/tracer.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace {

using namespace opckit;
using perfbench::Ledger;
using perfbench::Scoped;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;
namespace tm = trace::metric;

// ---- run-wide constants ---------------------------------------------------

/// Threads and connections never exceed the 4 CPUs the benchmark is
/// sized for (fewer when the machine has fewer).
int max_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw == 0 ? 1u : hw, 1u, 4u));
}
constexpr int kSetupReps = 3;     ///< set-up repetitions per run, at least
constexpr double kSetupSeconds = 2.0;  ///< ... and until they took this long
constexpr int kProbeReps = 5;     ///< per-call probes: repetitions (median)
constexpr int kBaseChips = 2;     ///< daemon: base chips per client family
/// daemon: nominal seconds one closed-loop round takes on a 4-CPU
/// machine; the round count is --seconds / this, so the daemon's work
/// (and every count it reports) depends on --seconds only.
constexpr double kNominalRoundSeconds = 0.65;

/// Whether to set up once more: a traced run sets up once; otherwise at
/// least kSetupReps times and until the set-ups took kSetupSeconds in
/// all, so that a short set-up's median still rests on many samples.
bool more_setups(const std::vector<double>& setup_s, bool traced) {
  if (traced) return setup_s.empty();
  double total = 0.0;
  for (double v : setup_s) total += v;
  return static_cast<int>(setup_s.size()) < kSetupReps || total < kSetupSeconds;
}

double ms_since(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// The daemon's shelf file stem for a flow fingerprint: 16 lowercase hex
/// digits (CorrectionLibrary's naming).
std::string fingerprint_hex(std::uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(fp));
  return buf;
}

/// Parse a double field of a single-line stats JSON ("name":value).
double json_number(const std::string& json, const std::string& name) {
  const std::string tag = "\"" + name + "\":";
  const std::size_t p = json.find(tag);
  if (p == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + p + tag.size(), nullptr);
}

/// Run \p fn on a pool worker thread, as the flow runs its tiles: the
/// per-kernel imaging loops then run inline (the nested-pool rule), so a
/// probe measures the same single-threaded call a tile makes.
template <typename Fn>
void on_worker(util::ThreadPool& pool, Fn fn) {
  std::promise<void> done;
  pool.submit([&] {
    try {
      fn();
      done.set_value();
    } catch (...) {
      done.set_exception(std::current_exception());
    }
  });
  done.get_future().get();
}

// ---- results --------------------------------------------------------------

struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::tuple<std::string, double, std::string>> metrics;
  std::vector<std::string> notes;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.emplace_back(name, value, unit);
  }
  void note(const std::string& line) { notes.push_back(line); }
};

void print_report(const std::string& workload, const Report& r) {
  for (const std::string& n : r.notes) std::cout << "# " << n << '\n';
  for (const std::string& f : r.failures) {
    std::cout << "# FAILED: " << f << '\n';
    std::cerr << "perfbench: FAILED: " << f << '\n';
  }
  std::cout << "# " << workload << ": " << r.metrics.size() << " metrics\n";
  for (const auto& [name, value, unit] : r.metrics) {
    std::printf("#   %-32s %16.6g %s\n", name.c_str(), value, unit.c_str());
  }
  std::ostringstream js;
  js << "{\"correct\":" << (r.failed == 0 ? "true" : "false")
     << ",\"attempted\":" << std::max<std::size_t>(r.attempted, 1)
     << ",\"failed\":" << r.failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value, unit] : r.metrics) {
    js << (first ? "" : ",") << "\"" << name << "\":{\"value\":"
       << util::format_double(std::isfinite(value) ? value : 0.0)
       << ",\"unit\":\"" << unit << "\"}";
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

// ---- processes and specs --------------------------------------------------

/// The batch workloads' process: KrF 248 nm, NA 0.68, the dense grid-21
/// annular 0.5/0.8 source imaged by SOCS at eps = 1e-3. Uncalibrated.
litho::SimSpec dense_process() {
  litho::SimSpec s;
  s.optics.wavelength_nm = 248.0;
  s.optics.na = 0.68;
  s.optics.source.shape = litho::SourceShape::kAnnular;
  s.optics.source.sigma_outer = 0.8;
  s.optics.source.sigma_inner = 0.5;
  s.optics.source.grid = 21;
  s.resist.diffusion_nm = 25.0;
  s.pixel_nm = 8.0;
  s.guard_nm = 800;
  s.imaging = litho::ImagingMode::kSocs;
  s.socs_epsilon = 1e-3;
  return s;
}

/// The daemon's process: the same optics on a coarse grid-5 source, so
/// imaging stays light and the service, reuse and I/O layers carry the
/// job time.
litho::SimSpec light_process() {
  litho::SimSpec s = dense_process();
  s.optics.source.grid = 5;
  return s;
}

/// ilt_escalate's process: the one the ILT corpus bench (t12) shows ILT
/// winning on — the coarse grid-5 source with a 600 nm guard, so an
/// 848 nm cell fits one 256 x 256 frame.
litho::SimSpec ilt_process() {
  litho::SimSpec s = light_process();
  s.guard_nm = 600;
  return s;
}

/// The production job every workload runs: model OPC with the default
/// convergence settings on the 8 nm mask grid (the mask_deck_180 signoff
/// deck's 8 nm minimum edge needs jogs in 8 nm steps), two context
/// passes, lint preflight, and the mask_deck_180 gate failing the job on
/// any error.
opc::FlowSpec base_spec(const litho::SimSpec& calibrated, int jobs) {
  opc::FlowSpec spec;
  spec.sim = calibrated;
  spec.opc.grid_nm = 8;
  spec.jobs = jobs;
  spec.input_layer = layout::layers::kPoly;
  spec.output_layer = layout::layers::kPolyOpc;
  spec.mrc_deck = mrc::mask_deck_180();
  spec.mrc_action = mrc::Action::kFail;
  return spec;
}

void clear_program_caches() {
  litho::KernelCache::instance().clear();
  litho::PlanCache::instance().clear();
}

// ---- tiles ------------------------------------------------------------------

/// One flat-flow tile as the flow sees it: a placement's own shapes, its
/// neighbours within the halo as context, and its window.
struct Tile {
  std::vector<geom::Polygon> own;
  std::vector<geom::Polygon> targets;  ///< own + context
  geom::Rect window = geom::Rect::empty();
};

/// The cell flow's tiles: one per distinct cell with shapes on \p layer,
/// in the flow's (sorted) order, without context, windowed by the cell's
/// bounding box over all layers.
std::vector<Tile> cell_tiles(const layout::Library& lib,
                             const layout::Layer& layer) {
  std::map<std::string, Tile> by_name;
  for (const layout::CellRef& ref : lib.at("top").refs()) {
    const layout::Cell& cell = lib.at(ref.child);
    if (by_name.count(ref.child) || cell.shapes(layer).empty()) continue;
    Tile& t = by_name[ref.child];
    t.own.assign(cell.shapes(layer).begin(), cell.shapes(layer).end());
    t.targets = t.own;
    t.window = cell.local_bbox();
  }
  std::vector<Tile> tiles;
  for (auto& [name, t] : by_name) tiles.push_back(std::move(t));
  return tiles;
}

std::vector<Tile> tiles_of(const layout::Library& lib,
                           const layout::Layer& layer, geom::Coord halo) {
  std::vector<Tile> tiles;
  for (const layout::CellRef& ref : lib.at("top").refs()) {
    Tile t;
    for (const geom::Polygon& p : lib.at(ref.child).shapes(layer)) {
      t.own.push_back(ref.transform(p));
      t.window = t.window.united(t.own.back().bbox());
    }
    tiles.push_back(std::move(t));
  }
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    tiles[i].targets = tiles[i].own;
    const geom::Rect reach = tiles[i].window.inflated(halo);
    for (std::size_t j = 0; j < tiles.size(); ++j) {
      if (j == i) continue;
      for (const geom::Polygon& p : tiles[j].own) {
        if (!reach.intersected(p.bbox()).is_empty()) {
          tiles[i].targets.push_back(p);
        }
      }
    }
  }
  return tiles;
}

/// Build every SOCS kernel set and FFT plan the tiles' frames need by
/// imaging each distinct frame shape once (and, for ILT, evaluating one
/// adjoint gradient).
void warm_frames(const std::vector<Tile>& tiles, const opc::FlowSpec& spec,
                 bool ilt) {
  litho::SimSpec eff = spec.sim;
  eff.guard_nm = std::max(spec.sim.guard_nm, spec.halo_nm);
  std::set<std::pair<std::size_t, std::size_t>> seen;
  for (const Tile& t : tiles) {
    const litho::Simulator sim(eff, t.window);
    if (!seen.insert({sim.frame().nx, sim.frame().ny}).second) continue;
    sim.latent(geom::Region::from_polygons(t.own));
    if (ilt) {
      const ilt::PixelProblem problem(t.targets, eff, t.window, spec.ilt);
      std::vector<double> grad;
      problem.cost_and_gradient(problem.initial(), grad);
    }
  }
}

// ---- phase clock ---------------------------------------------------------

/// Turns a stream of (phase, pass) start events into per-phase durations:
/// each phase lasts until the next phase starts, the last until finish().
class PhaseClock {
 public:
  PhaseClock(Ledger* ledger, std::uint64_t job) : ledger_(ledger), job_(job) {}

  void event(const std::string& phase, int pass, double t_ms) {
    if (open_ && phase == phase_ && pass == pass_) return;
    close(t_ms);
    open_ = true;
    phase_ = phase;
    pass_ = pass;
    start_ = t_ms;
  }
  void finish(double t_ms) { close(t_ms); }
  double total(const std::string& phase) const {
    const auto it = totals_.find(phase);
    return it == totals_.end() ? 0.0 : it->second;
  }

 private:
  void close(double t_ms) {
    if (!open_) return;
    totals_[phase_] += t_ms - start_;
    if (ledger_) {
      perfbench::SpanRecord s;
      s.name = "core." + phase_;
      s.start_ms = start_;
      s.end_ms = t_ms;
      s.job = job_;
      ledger_->add(std::move(s));
    }
    open_ = false;
  }

  Ledger* ledger_;
  std::uint64_t job_;
  bool open_ = false;
  std::string phase_;
  int pass_ = 0;
  double start_ = 0.0;
  std::map<std::string, double> totals_;
};

const std::vector<std::string> kPhases = {"gather", "resolve", "solve",
                                          "merge", "mrc"};

// ---- per-layer metric set ---------------------------------------------------

/// Every per-layer metric, in report order, with its unit. Each workload
/// reports all of them; a layer the workload does not reach reads 0.
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"layout.gds_read_ms", "ms"},
    {"layout.gds_write_ms", "ms"},
    {"layout.mask_vertices", "count"},
    {"lint.preflight_ms", "ms"},
    {"core.gather_ms", "ms"},
    {"core.resolve_ms", "ms"},
    {"core.solve_ms", "ms"},
    {"core.merge_ms", "ms"},
    {"core.mrc_ms", "ms"},
    {"core.tiles", "count"},
    {"core.opc_runs", "count"},
    {"core.simulations", "count"},
    {"core.iterations_per_solve", "count"},
    {"core.cache_hit_ratio", "ratio"},
    {"core.epe_probe_ms", "ms"},
    {"core.tile_ms_p50", "ms"},
    {"core.tile_ms_max", "ms"},
    {"core.parallel_efficiency", "ratio"},
    {"core.solve_unattributed_ratio", "ratio"},
    {"litho.kernel_build_ms", "ms"},
    {"litho.kernels", "count"},
    {"litho.latent_ms", "ms"},
    {"litho.aerial_ms", "ms"},
    {"litho.rasterize_ms", "ms"},
    {"litho.spectrum_ms", "ms"},
    {"litho.resist_blur_ms", "ms"},
    {"litho.aerial_images", "count"},
    {"litho.fft_batched", "count"},
    {"litho.fft_r2c", "count"},
    {"litho.fft_c2r", "count"},
    {"litho.fft2d", "count"},
    {"litho.rows_pruned_ratio", "ratio"},
    {"litho.kernel_sets_built", "count"},
    {"litho.plan_builds", "count"},
    {"ilt.cost_ms", "ms"},
    {"ilt.gradient_ms", "ms"},
    {"ilt.gradient_over_cost", "ratio"},
    {"ilt.legalize_ms", "ms"},
    {"ilt.tiles", "count"},
    {"ilt.kept_tiles", "count"},
    {"ilt.iterations", "count"},
    {"ilt.iterations_per_tile", "count"},
    {"mrc.check_ms", "ms"},
    {"mrc.violations", "count"},
    {"pattern.library_open_ms", "ms"},
    {"pattern.nearest_ms", "ms"},
    {"pattern.exact_hits", "count"},
    {"pattern.near_hits", "count"},
    {"pattern.warm_iterations", "count"},
    {"store.load_ms", "ms"},
    {"store.records", "count"},
    {"store.bytes", "B"},
    {"service.connect_ms", "ms"},
    {"service.queue_wait_ms", "ms"},
    {"service.run_ms", "ms"},
    {"service.rejected", "count"},
    {"service.cache_hit_ratio", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

/// Per-layer values collected during a traced run; finish() emits every
/// name of kLayerMetrics in order.
struct Layers {
  std::map<std::string, double> v;
  void set(const std::string& name, double value) { v[name] = value; }
  void emit(Report& r) const {
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = v.find(name);
      r.add(name, it == v.end() ? 0.0 : it->second, unit);
    }
  }
};

/// Median of \p reps timed calls of \p fn, each recorded as a ledger span.
template <typename Fn>
double probe(Ledger& ledger, const std::string& name, Fn fn,
             int reps = kProbeReps) {
  for (int i = 0; i < reps; ++i) {
    Scoped s(&ledger, name);
    fn();
  }
  return perfbench::median(ledger.durations(name));
}

/// Registry counts shared by the flow workloads, divided by \p per.
void layer_counts(Layers& L, const std::map<std::string, double>& d,
                  double per, std::size_t frame_rows) {
  const auto c = [&](const char* name) {
    return perfbench::delta_of(d, name) / per;
  };
  const double tiles = c(tm::kFlowTilesMerged);
  const double runs = c(tm::kFlowOpcRuns);
  const double sims = c(tm::kFlowSimulations);
  const double hits = c(tm::kCacheHits);
  L.set("core.tiles", tiles);
  L.set("core.opc_runs", runs);
  L.set("core.simulations", sims);
  L.set("core.iterations_per_solve", runs > 0 ? sims / runs : 0.0);
  L.set("core.cache_hit_ratio", tiles > 0 ? hits / tiles : 0.0);
  L.set("litho.aerial_images", c(tm::kLithoAerialImages));
  const double batched = c(tm::kLithoFftBatchedTransforms);
  L.set("litho.fft_batched", batched);
  L.set("litho.fft_r2c", c(tm::kLithoFftR2cTransforms));
  L.set("litho.fft_c2r", c(tm::kLithoFftC2rTransforms));
  L.set("litho.fft2d", c(tm::kLithoFft2dTransforms));
  L.set("litho.rows_pruned_ratio",
        batched > 0 ? c(tm::kLithoFftRowsPruned) /
                          (batched * static_cast<double>(frame_rows))
                    : 0.0);
  L.set("litho.kernel_sets_built", c(tm::kLithoSocsKernelSetsBuilt));
  L.set("litho.plan_builds", c(tm::kLithoFftPlanBuilds));
  L.set("mrc.violations", c(tm::kMrcViolations));
  L.set("pattern.exact_hits", c(tm::kPatLibraryExactHits));
  L.set("pattern.near_hits", c(tm::kPatLibraryNearHits));
  L.set("pattern.warm_iterations", c(tm::kPatLibraryWarmIterations));
  L.set("service.rejected", c(tm::kSvcJobsRejected));
  const double lookups = c(tm::kSvcCacheLookups);
  L.set("service.cache_hit_ratio",
        lookups > 0 ? c(tm::kSvcCacheHits) / lookups : 0.0);
}

/// Imaging-layer probes on one tile (run on a pool worker, like a tile).
void litho_probes(Ledger& ledger, Layers& L, util::ThreadPool& worker,
                  const Tile& tile, const opc::FlowSpec& spec) {
  litho::SimSpec eff = spec.sim;
  eff.guard_nm = std::max(spec.sim.guard_nm, spec.halo_nm);
  const litho::Simulator sim(eff, tile.window);
  const litho::Frame frame = sim.frame();
  const geom::Region mask = geom::Region::from_polygons(tile.targets);
  const litho::SocsOptions socs{eff.socs_epsilon};
  on_worker(worker, [&] {
    std::size_t kernels = 0;
    L.set("litho.kernel_build_ms",
          probe(ledger, "litho.kernel_build", [&] {
            kernels = litho::build_socs_kernels(eff.optics, frame, 0.0, socs)
                          .kernels.size();
          }, 3));
    L.set("litho.kernels", static_cast<double>(kernels));
    L.set("litho.latent_ms",
          probe(ledger, "litho.latent", [&] { sim.latent(mask); }));
    litho::Image img;
    L.set("litho.rasterize_ms", probe(ledger, "litho.rasterize", [&] {
            img = litho::rasterize(mask, frame);
          }));
    const litho::SocsImager imager(eff.optics, frame, socs);
    litho::Image aerial;
    L.set("litho.aerial_ms", probe(ledger, "litho.aerial", [&] {
            aerial = imager.aerial_image(img, 0.0, eff.mask);
          }));
    const litho::Fft2d fft(frame.nx, frame.ny);
    std::vector<litho::Complex> spectrum;
    L.set("litho.spectrum_ms", probe(ledger, "litho.spectrum", [&] {
            fft.forward_real(img.values(), spectrum);
          }));
    L.set("litho.resist_blur_ms", probe(ledger, "litho.resist_blur", [&] {
            litho::gaussian_blur(aerial, eff.resist.diffusion_nm);
          }));
    const auto frags =
        opc::fragment_polygons(opc::merge_targets(tile.own),
                               spec.opc.fragmentation);
    L.set("core.epe_probe_ms", probe(ledger, "core.epe_probe", [&] {
            opc::measure_fragment_epe(tile.own, frags, tile.targets, eff,
                                      tile.window, spec.opc.probe_range_nm);
          }));
  });
}

/// ILT-layer probes on one escalated tile.
void ilt_probes(Ledger& ledger, Layers& L, util::ThreadPool& worker,
                const Tile& tile, const opc::FlowSpec& spec) {
  litho::SimSpec eff = spec.sim;
  eff.guard_nm = std::max(spec.sim.guard_nm, spec.halo_nm);
  on_worker(worker, [&] {
    const ilt::PixelProblem problem(tile.targets, eff, tile.window, spec.ilt);
    const double cost = probe(ledger, "ilt.cost",
                              [&] { problem.cost(problem.initial()); });
    std::vector<double> grad;
    const double gradient = probe(ledger, "ilt.gradient", [&] {
      problem.cost_and_gradient(problem.initial(), grad);
    });
    L.set("ilt.cost_ms", cost);
    L.set("ilt.gradient_ms", gradient);
    L.set("ilt.gradient_over_cost", cost > 0 ? gradient / cost : 0.0);
    litho::Image m(problem.frame());
    m.values() = problem.initial();
    L.set("ilt.legalize_ms", probe(ledger, "ilt.legalize", [&] {
            ilt::legalize_mask(m, tile.window, spec.ilt);
          }));
  });
}

/// Probes of the job's I/O and checks on one input GDS and one output:
/// GDSII read/write, the lint preflight, the output's vertex count and
/// its MRC check.
void output_probes(Ledger& ledger, Layers& L, const std::string& in,
                   const std::string& out, const opc::FlowSpec& spec,
                   const fs::path& dir) {
  const layout::Library inlib = layout::read_gdsii_file(in);
  const layout::Library outlib = layout::read_gdsii_file(out);
  L.set("layout.gds_read_ms", probe(ledger, "layout.gds_read_probe", [&] {
          layout::read_gdsii_file(in);
        }));
  const std::string probe_out = (dir / "probe.gds").string();
  L.set("layout.gds_write_ms", probe(ledger, "layout.gds_write_probe", [&] {
          layout::write_gdsii_file(outlib, probe_out);
        }));
  const std::vector<geom::Polygon> mask =
      outlib.flatten("top", spec.output_layer);
  double vertices = 0.0;
  for (const auto& p : mask) vertices += static_cast<double>(p.size());
  L.set("layout.mask_vertices", vertices);
  lint::LintOptions lint_opts;
  lint_opts.grid_nm = spec.opc.grid_nm;
  L.set("lint.preflight_ms", probe(ledger, "lint.preflight", [&] {
          lint::lint_library(inlib, lint_opts);
          lint::lint_sim_spec(spec.sim, lint_opts);
          lint::lint_opc_spec(spec.opc, lint_opts);
        }));
  L.set("mrc.check_ms", probe(ledger, "mrc.check", [&] {
          mrc::check_polygons(mask, spec.mrc_deck);
        }));
}

/// Tile-span statistics from the program's own tracer spans.
void tile_span_stats(Layers& L, const std::vector<perfbench::SpanRecord>& tiles,
                     double solve_wall_ms, int threads) {
  std::vector<double> d;
  double busy = 0.0;
  for (const auto& s : tiles) {
    d.push_back(s.duration_ms());
    busy += s.duration_ms();
  }
  L.set("core.tile_ms_p50", perfbench::median(d));
  L.set("core.tile_ms_max", d.empty() ? 0.0 : *std::max_element(d.begin(), d.end()));
  L.set("core.parallel_efficiency",
        solve_wall_ms > 0 ? busy / (solve_wall_ms * threads) : 0.0);
}

// ---- batch workloads --------------------------------------------------------

struct BatchConfig {
  perfbench::Chip chip;
  /// ilt_escalate: model-to-ILT escalation in the cell flow on
  /// ilt_process(); otherwise model OPC in the flat flow on
  /// dense_process().
  bool ilt = false;
  int min_jobs = 3;  ///< timed jobs at least, however long
};

opc::FlowSpec batch_spec(const BatchConfig& cfg, const litho::SimSpec& sim) {
  opc::FlowSpec spec = base_spec(sim, max_threads());
  if (cfg.ilt) {
    // Escalation sends every unconverged tile to ILT, and at the default
    // 1 nm tolerance no tile converges on the 8 nm mask grid. One grid
    // step as both tolerance and escalation threshold lets model OPC
    // keep the easy tiles and escalate the hard ones.
    spec.engine = opc::CorrectionEngine::kEscalate;
    spec.opc.epe_tolerance_nm = 8.0;
    spec.ilt_escalation_epe_nm = 8.0;
    // The cell flow images with spec.sim as is; a halo equal to the
    // guard makes the benchmark's own frames (max of the two) match.
    spec.halo_nm = sim.guard_nm;
  }
  return spec;
}

struct JobResult {
  double ms = 0.0;
  bool ok = true;
  std::string error;
  opc::FlowStats stats;
};

/// One chip job through the public entry points: GDSII read, flat or
/// cell flow (lint preflight, correction, MRC gate), GDSII write.
JobResult batch_job(const std::string& in, const std::string& out,
                    opc::FlowSpec spec, bool cell_flow, Ledger* ledger,
                    std::uint64_t id, PhaseClock* phases) {
  JobResult r;
  if (phases) {
    spec.progress = [&](const opc::FlowProgress& p) {
      phases->event(std::string(p.phase), p.pass, ledger->now_ms());
    };
  }
  const auto t0 = Clock::now();
  {
    Scoped job(ledger, "job", id);
    layout::Library lib;
    {
      Scoped s(ledger, "layout.gds_read");
      lib = layout::read_gdsii_file(in);
    }
    try {
      Scoped s(ledger, cell_flow ? "core.run_cell_opc" : "core.run_flat_opc");
      r.stats = cell_flow ? opc::run_cell_opc(lib, "top", spec)
                          : opc::run_flat_opc(lib, "top", spec);
    } catch (const opc::MrcGateError& e) {
      r.ok = false;
      r.error = e.what();
      r.stats = e.stats();
    } catch (const std::exception& e) {
      r.ok = false;
      r.error = e.what();
    }
    if (phases) phases->finish(ledger->now_ms());
    Scoped s(ledger, "layout.gds_write");
    layout::write_gdsii_file(lib, out);
  }
  r.ms = ms_since(t0);
  return r;
}

/// Checks one job's outcome; the first output of the run is the
/// reference every later output must match byte for byte.
void check_job(Report& rep, const JobResult& r, const std::string& out,
               std::string& reference) {
  rep.check(r.ok, "job failed: " + r.error.substr(0, 300));
  const std::string bytes = slurp(out);
  if (reference.empty()) reference = bytes;
  rep.check(!bytes.empty() && bytes == reference,
            "output differs from the run's first output of the same input");
}

void run_batch(const std::string& name, BatchConfig cfg, double seconds,
               bool traced, const fs::path& dir, Report& rep) {
  const std::string in = (dir / "chip.gds").string();
  const std::string out = (dir / "out.gds").string();
  layout::write_gdsii_file(cfg.chip.lib, in);
  const std::vector<Tile> tiles =
      cfg.ilt ? cell_tiles(cfg.chip.lib, layout::layers::kPoly)
              : tiles_of(cfg.chip.lib, layout::layers::kPoly, 800);

  // Set-up: calibration plus every kernel set and plan the jobs use.
  std::vector<double> setup_s;
  opc::FlowSpec spec;
  while (more_setups(setup_s, traced)) {
    clear_program_caches();
    const auto t0 = Clock::now();
    litho::SimSpec sim = cfg.ilt ? ilt_process() : dense_process();
    litho::calibrate_threshold(sim, 180, 360);
    spec = batch_spec(cfg, sim);
    warm_frames(tiles, spec, cfg.ilt);
    setup_s.push_back(ms_since(t0) / 1000.0);
  }
  rep.note(name + ": " + std::to_string(cfg.chip.placements) +
           " placements, " + util::format_double(cfg.chip.area_um2) +
           " um2 chip, " +
           (cfg.ilt ? std::to_string(tiles.size()) + " tiles per job (cell flow)"
                    : std::to_string(2 * cfg.chip.placements) +
                          " tiles per job (flat flow, 2 context passes)") +
           ", jobs=" + std::to_string(spec.jobs));

  std::string reference;
  // ilt_escalate: the ILT masks kept in the output and their descent
  // steps, as the run's first job had them. Every later job must keep
  // the same, and at least one ILT mask must reach the output.
  std::size_t ilt_kept = 0, ilt_steps = 0;
  const auto check_ilt = [&](const opc::FlowStats& s) {
    if (ilt_kept == 0) {
      ilt_kept = s.ilt_tiles;
      ilt_steps = s.ilt_iterations;
    }
    rep.check(s.ilt_tiles > 0 && s.ilt_tiles == ilt_kept &&
                  s.ilt_iterations == ilt_steps,
              "kept ILT masks (" + std::to_string(s.ilt_tiles) + ", " +
                  std::to_string(s.ilt_iterations) +
                  " steps) differ from the first job's or are none");
  };
  const auto run_jobs = [&](Ledger* ledger, int min_jobs, double budget_s,
                            std::vector<JobResult>& results,
                            std::vector<std::map<std::string, double>>* ph) {
    const auto start = Clock::now();
    while (static_cast<int>(results.size()) < min_jobs ||
           ms_since(start) < budget_s * 1000.0) {
      const std::uint64_t id = results.size() + 1;
      std::unique_ptr<PhaseClock> clock;
      if (ledger) clock = std::make_unique<PhaseClock>(ledger, id);
      results.push_back(
          batch_job(in, out, spec, cfg.ilt, ledger, id, clock.get()));
      check_job(rep, results.back(), out, reference);
      if (cfg.ilt) check_ilt(results.back().stats);
      if (ph) {
        std::map<std::string, double> p;
        for (const auto& phase : kPhases) p[phase] = clock->total(phase);
        ph->push_back(std::move(p));
      }
    }
  };

  if (!traced) {
    std::vector<JobResult> results;
    const auto before = trace::metrics().snapshot();
    const auto t0 = Clock::now();
    run_jobs(nullptr, cfg.min_jobs, seconds, results, nullptr);
    const double wall_s = ms_since(t0) / 1000.0;
    const auto d = perfbench::registry_delta(before, trace::metrics().snapshot());
    rep.check(perfbench::delta_of(d, tm::kLithoSocsKernelSetsBuilt) == 0 &&
                  perfbench::delta_of(d, tm::kLithoFftPlanBuilds) == 0,
              "kernel sets or FFT plans were built inside the timed jobs");
    std::vector<double> ms;
    double worst_epe = 0.0;
    for (const JobResult& r : results) {
      ms.push_back(r.ms);
      worst_epe = std::max(worst_epe, r.stats.max_abs_epe_nm);
    }
    const opc::FlowStats& s0 = results.front().stats;
    rep.note("per job: " + std::to_string(s0.tile_simulations.size()) +
             " tiles, " + std::to_string(s0.simulations) + " simulations, " +
             std::to_string(s0.cache_hits) + " cache hits, " +
             std::to_string(s0.ilt_escalated) + " escalated to ILT, " +
             std::to_string(s0.ilt_tiles) + " ILT masks kept");
    const perfbench::Tail tail = perfbench::tail_percentile(ms);
    rep.note("job_ms over " + std::to_string(ms.size()) + " jobs; tail = p" +
             util::format_double(tail.percentile));
    rep.add("setup_s", perfbench::median(setup_s), "s");
    rep.add("job_ms_p50", perfbench::median(ms), "ms");
    rep.add("job_ms_tail", tail.value, "ms");
    rep.add("jobs_per_s", static_cast<double>(results.size()) / wall_s, "1/s");
    rep.add("worst_epe_nm", worst_epe, "nm");
    rep.add("mask_bytes", static_cast<double>(reference.size()), "B");
    rep.add("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced run: untraced jobs first (the overhead baseline), then traced
  // jobs with ledger spans, phase spans and the program's tile spans.
  Ledger ledger;
  Layers L;
  std::vector<JobResult> plain, traced_jobs;
  run_jobs(nullptr, 2, seconds / 3.0, plain, nullptr);
  std::vector<std::map<std::string, double>> phases;
  const auto before = trace::metrics().snapshot();
  const double trace_t0 = ledger.now_ms();
  trace::Tracer::instance().start();
  run_jobs(&ledger, 2, seconds / 3.0, traced_jobs, &phases);
  trace::Tracer::instance().stop();
  const auto d = perfbench::registry_delta(before, trace::metrics().snapshot());
  const double njobs = static_cast<double>(traced_jobs.size());
  const std::string tracer_json = trace::Tracer::instance().to_json();
  std::vector<perfbench::SpanRecord> tile_spans =
      perfbench::parse_tracer_spans(tracer_json, "flow.solve.tile", trace_t0);
  for (auto& s : tile_spans) ledger.add(s);

  std::vector<double> plain_ms, traced_ms;
  for (const auto& r : plain) plain_ms.push_back(r.ms);
  for (const auto& r : traced_jobs) traced_ms.push_back(r.ms);
  L.set("trace.overhead_ratio",
        perfbench::median(traced_ms) / perfbench::median(plain_ms) - 1.0);
  for (const auto& phase : kPhases) {
    std::vector<double> v;
    for (const auto& p : phases) v.push_back(p.at(phase));
    L.set("core." + phase + "_ms", perfbench::median(v));
  }
  double solve_wall = 0.0;
  for (const auto& p : phases) solve_wall += p.at("solve");
  tile_span_stats(L, tile_spans, solve_wall, spec.jobs);

  const litho::Simulator frame_sim(spec.sim, tiles.front().window);
  layer_counts(L, d, njobs, frame_sim.frame().ny);
  // ILT work: every ILT run (ilt.runs counts reverted escalations too),
  // the runs whose mask was kept, and the kept runs' descent steps. The
  // steps of a reverted escalation reach only core.simulations: the
  // registry bins ILT steps in a histogram and FlowStats counts kept
  // tiles' steps only, so no exact total of all runs is available.
  double ilt_kept_tiles = 0.0, ilt_iters = 0.0;
  for (const auto& r : traced_jobs) {
    ilt_kept_tiles += static_cast<double>(r.stats.ilt_tiles) / njobs;
    ilt_iters += static_cast<double>(r.stats.ilt_iterations) / njobs;
  }
  L.set("ilt.tiles", perfbench::delta_of(d, tm::kIltRuns) / njobs);
  L.set("ilt.kept_tiles", ilt_kept_tiles);
  L.set("ilt.iterations", ilt_iters);
  L.set("ilt.iterations_per_tile",
        ilt_kept_tiles > 0 ? ilt_iters / ilt_kept_tiles : 0.0);

  // Per-call probes on the first tile: a hard (escalating) cell in
  // ilt_escalate.
  util::ThreadPool worker(1);
  litho_probes(ledger, L, worker, tiles.front(), spec);
  if (cfg.ilt) ilt_probes(ledger, L, worker, tiles.front(), spec);
  output_probes(ledger, L, in, out, spec, dir);

  // Ledger consistency: probe time x calls per job against the solve
  // phase's busy time (the sum of the program's per-tile solve spans).
  double busy = 0.0;
  for (const auto& s : tile_spans) busy += s.duration_ms();
  busy /= njobs;
  const double attributed =
      L.v["litho.latent_ms"] * L.v["litho.aerial_images"] +
      (L.v["ilt.cost_ms"] + L.v["ilt.gradient_ms"]) * L.v["ilt.iterations"];
  L.set("core.solve_unattributed_ratio",
        busy > 0 ? 1.0 - attributed / busy : 0.0);

  for (const auto& r : traced_jobs) {
    rep.check(r.stats.mrc.violations.empty(), "MRC violations in output");
  }
  ledger.write_json((dir / "spans.json").string());
  L.emit(rep);
}

// ---- daemon workload --------------------------------------------------------

struct DaemonJob {
  std::string in;
  std::uint8_t flow = 0;
  std::string key;  ///< identity of the input for the byte-equality check
  int client = 0;
};

/// The job spec client \p c submits: the shared recipe with a per-client
/// pattern-library budget. The budget is part of the flow fingerprint, so
/// each client gets its own daemon shelf. Clients then never warm-start
/// from each other's solves, and hit and solve counts do not depend on
/// how the clients interleave (one family's isolated cells are within
/// the near-match budget of another's).
opc::FlowSpec client_spec(const opc::FlowSpec& spec, int c) {
  opc::FlowSpec s = spec;
  s.library_budget += 1e-4 * c;
  return s;
}

struct DaemonOutcome {
  double latency_ms = 0.0;
  double connect_ms = 0.0;
  double queue_wait_ms = 0.0;
  double run_ms = 0.0;
  bool ok = false;
  std::string error;
  std::string bytes;
  double max_epe = 0.0;
  std::string key;
};

DaemonOutcome submit(const std::string& sock, const DaemonJob& job,
                     const opc::FlowSpec& spec, const std::string& out,
                     Ledger* ledger, std::uint64_t id) {
  DaemonOutcome o;
  o.key = job.key;
  Scoped span(ledger, "job", id);
  const auto t0 = Clock::now();
  try {
    std::unique_ptr<svc::FdStream> stream;
    {
      Scoped s(ledger, "service.connect");
      stream = svc::connect_unix(sock);
    }
    o.connect_ms = ms_since(t0);
    svc::Client client(std::move(stream));
    svc::SubmitMsg msg;
    msg.flow = job.flow;
    msg.in_path = job.in;
    msg.out_path = out;
    msg.spec = client_spec(spec, job.client);
    double first_progress = -1.0;
    PhaseClock phases(ledger, id);
    const double base = ledger ? ledger->to_ms(t0) : 0.0;
    const svc::Client::Outcome res =
        client.run_job(msg, [&](const svc::ProgressMsg& p) {
          const double t = ms_since(t0);
          if (first_progress < 0) first_progress = t;
          if (ledger) phases.event(p.phase, p.pass, base + t);
        });
    o.latency_ms = ms_since(t0);
    if (ledger) phases.finish(base + o.latency_ms);
    if (first_progress >= 0) {
      o.queue_wait_ms = first_progress;
      o.run_ms = o.latency_ms - first_progress;
    }
    o.ok = res.accepted && res.result.ok;
    if (!o.ok) {
      o.error = res.accepted ? res.result.payload : res.rejected.message;
    } else {
      o.max_epe = json_number(res.result.payload, "max_abs_epe_nm");
      o.bytes = slurp(out);
    }
  } catch (const std::exception& e) {
    o.latency_ms = ms_since(t0);
    o.error = e.what();
  }
  return o;
}

struct Daemon {
  std::unique_ptr<svc::Server> server;
  std::string sock;
  fs::path shelves;
};

/// A closed loop: one thread per client submits that client's jobs in
/// order, each after the previous result arrived, writing its outputs to
/// DIR/<out_prefix><client>.gds. Returns the outcomes per client.
std::vector<std::vector<DaemonOutcome>> run_closed_loop(
    const Daemon& daemon, const std::vector<std::vector<DaemonJob>>& jobs,
    const opc::FlowSpec& spec, const fs::path& dir,
    const std::string& out_prefix, Ledger* ledger) {
  std::vector<std::vector<DaemonOutcome>> outcomes(jobs.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < jobs.size(); ++c) {
    threads.emplace_back([&, c] {
      const std::string out =
          (dir / (out_prefix + std::to_string(c) + ".gds")).string();
      std::uint64_t id = 1000 * (c + 1);
      for (const DaemonJob& job : jobs[c]) {
        outcomes[c].push_back(submit(daemon.sock, job, spec, out, ledger, ++id));
      }
    });
  }
  for (auto& t : threads) t.join();
  return outcomes;
}

/// Start a daemon and replay the cold pass: the anchor chip (client 0's
/// first base, flat) alone first, then every client's bases, flat and
/// cell, each client in order on its own thread.
Daemon start_daemon(const fs::path& dir, int rep_i, const opc::FlowSpec& spec,
                    const std::vector<std::vector<DaemonJob>>& cold,
                    std::map<std::string, std::string>& first_out,
                    Report& report) {
  Daemon d;
  d.sock = (dir / ("opcd" + std::to_string(rep_i) + ".sock")).string();
  d.shelves = dir / ("shelves" + std::to_string(rep_i));
  fs::remove_all(d.shelves);
  fs::create_directories(d.shelves);
  svc::ServerOptions opts;
  opts.unix_path = d.sock;
  opts.workers = max_threads();
  opts.max_inflight = static_cast<std::size_t>(opts.workers);
  opts.library.dir = d.shelves.string();
  opts.library.sync_on_append = false;
  d.server = std::make_unique<svc::Server>(std::move(opts));
  d.server->start();

  const auto record = [&](const DaemonOutcome& o) {
    report.check(o.ok, "cold job failed: " + o.error.substr(0, 300));
    auto [it, fresh] = first_out.emplace(o.key, o.bytes);
    report.check(fresh || it->second == o.bytes,
                 "cold output of " + o.key + " differs between set-ups");
  };
  std::vector<std::vector<DaemonJob>> rest = cold;
  rest[0].erase(rest[0].begin());
  record(run_closed_loop(d, {{cold[0][0]}}, spec, dir, "cold_anchor",
                         nullptr)[0][0]);
  for (const auto& per_client :
       run_closed_loop(d, rest, spec, dir, "cold_c", nullptr)) {
    for (const DaemonOutcome& o : per_client) record(o);
  }
  return d;
}

void run_daemon(std::uint64_t seed, double seconds, bool traced,
                const fs::path& dir, Report& rep) {
  const int clients = max_threads();
  const int rounds =
      std::max(2, static_cast<int>(std::lround(seconds / kNominalRoundSeconds)));

  // Inputs: per client a family of base chips and one jittered variant
  // per round, all written before anything is timed.
  std::vector<perfbench::Family> families;
  std::vector<std::vector<DaemonJob>> cold(static_cast<std::size_t>(clients));
  std::vector<std::vector<DaemonJob>> plan(static_cast<std::size_t>(clients));
  double area = 0.0;
  std::size_t placements = 0;
  for (int c = 0; c < clients; ++c) {
    families.push_back(perfbench::make_family(seed, c, kBaseChips));
    std::vector<DaemonJob> bases;
    for (int b = 0; b < kBaseChips; ++b) {
      const perfbench::Chip& chip = families.back().bases[static_cast<std::size_t>(b)];
      const std::string path =
          (dir / ("c" + std::to_string(c) + "_base" + std::to_string(b) + ".gds"))
              .string();
      layout::write_gdsii_file(chip.lib, path);
      area += chip.area_um2;
      placements += chip.placements;
      bases.push_back({path, 0, path + "#flat", c});
    }
    auto& cc = cold[static_cast<std::size_t>(c)];
    for (const auto& b : bases) cc.push_back(b);
    cc.push_back({bases[0].in, 1, bases[0].in + "#cell", c});
    for (int r = 0; r < rounds; ++r) {
      const std::string vpath = (dir / ("c" + std::to_string(c) + "_v" +
                                        std::to_string(r) + ".gds"))
                                    .string();
      layout::write_gdsii_file(
          perfbench::make_variant(families.back(), r).lib, vpath);
      // One round: two flat replays, a fresh variant, a cell-flow replay.
      plan[static_cast<std::size_t>(c)].insert(
          plan[static_cast<std::size_t>(c)].end(),
          {bases[0], bases[1], {vpath, 0, vpath + "#flat", c},
           {bases[0].in, 1, bases[0].in + "#cell", c}});
    }
  }
  rep.note("daemon_reuse: " + std::to_string(clients) + " closed-loop clients, " +
           std::to_string(rounds) + " rounds of 4 jobs each, " +
           std::to_string(kBaseChips) + " base chips per client (" +
           std::to_string(placements) + " placements, " +
           util::format_double(area) + " um2 in all)");

  // Set-up: calibration, kernel sets, Server::start and the cold pass.
  std::map<std::string, std::string> first_out;
  std::vector<double> setup_s;
  opc::FlowSpec spec;
  Daemon daemon;
  for (int rep_i = 0; more_setups(setup_s, traced); ++rep_i) {
    if (daemon.server) daemon.server->stop();
    daemon = Daemon{};
    clear_program_caches();
    const auto t0 = Clock::now();
    litho::SimSpec sim = light_process();
    litho::calibrate_threshold(sim, 180, 360);
    spec = base_spec(sim, 1);
    // One mask-grid step as the tolerance, as in ilt_escalate: tiles
    // converge, so near-hit warm starts have iterations to save.
    spec.opc.epe_tolerance_nm = 8.0;
    spec.library_budget = 0.05;
    daemon = start_daemon(dir, rep_i, spec, cold, first_out, rep);
    setup_s.push_back(ms_since(t0) / 1000.0);
  }

  // Timed closed loop: every client runs its rounds back to back.
  Ledger ledger;
  const auto before = trace::metrics().snapshot();
  const double trace_t0 = ledger.now_ms();
  if (traced) trace::Tracer::instance().start();
  const auto t0 = Clock::now();
  const std::vector<std::vector<DaemonOutcome>> outcomes = run_closed_loop(
      daemon, plan, spec, dir, "out_c", traced ? &ledger : nullptr);
  const double wall_s = ms_since(t0) / 1000.0;
  if (traced) trace::Tracer::instance().stop();
  const auto d = perfbench::registry_delta(before, trace::metrics().snapshot());
  rep.check(perfbench::delta_of(d, tm::kLithoSocsKernelSetsBuilt) == 0 &&
                perfbench::delta_of(d, tm::kLithoFftPlanBuilds) == 0,
            "kernel sets or FFT plans were built inside the timed jobs");

  std::vector<double> latency;
  double worst_epe = 0.0, bytes = 0.0;
  std::size_t jobs = 0;
  const auto check_outcome = [&](const DaemonOutcome& o) {
    rep.check(o.ok, "job failed: " + o.error.substr(0, 300));
    auto [it, fresh] = first_out.emplace(o.key, o.bytes);
    rep.check(fresh || it->second == o.bytes,
              "output of " + o.key + " differs from its first output");
  };
  for (const auto& per_client : outcomes) {
    for (const DaemonOutcome& o : per_client) {
      ++jobs;
      check_outcome(o);
      latency.push_back(o.latency_ms);
      worst_epe = std::max(worst_epe, o.max_epe);
      bytes += static_cast<double>(o.bytes.size());
    }
  }

  // Traced run only: tracing overhead on replay-only closed loops, one
  // untraced and one traced, on the same warm daemon.
  std::string tracer_json;
  double overhead = 0.0;
  if (traced) {
    tracer_json = trace::Tracer::instance().to_json();
    std::vector<std::vector<DaemonJob>> replays;
    for (const auto& jobs : cold) {
      replays.emplace_back();
      for (int k = 0; k < 3; ++k) {
        replays.back().insert(replays.back().end(), jobs.begin(), jobs.end());
      }
    }
    const auto replay_loop = [&](bool on) {
      if (on) trace::Tracer::instance().start();
      const auto res =
          run_closed_loop(daemon, replays, spec, dir, "replay_c", nullptr);
      if (on) trace::Tracer::instance().stop();
      std::vector<double> ms;
      for (const auto& per_client : res) {
        for (const DaemonOutcome& o : per_client) {
          check_outcome(o);
          ms.push_back(o.latency_ms);
        }
      }
      return perfbench::median(ms);
    };
    const double plain = replay_loop(false);
    const double with = replay_loop(true);
    overhead = with / plain - 1.0;
  }
  daemon.server->stop();

  // Anchor (outside the timed window): the daemon's output for client 0's
  // first base chip must equal a direct in-process run of the same job.
  const std::string direct = (dir / "direct_anchor.gds").string();
  {
    layout::Library lib = layout::read_gdsii_file(cold[0][0].in);
    opc::run_flat_opc(lib, "top", spec);
    layout::write_gdsii_file(lib, direct);
    rep.check(slurp(direct) == first_out.at(cold[0][0].key),
              "daemon output differs from the direct run_flat_opc anchor");
  }

  if (!traced) {
    const perfbench::Tail tail = perfbench::tail_percentile(latency);
    rep.note("job latency over " + std::to_string(latency.size()) +
             " jobs; tail = p" + util::format_double(tail.percentile));
    rep.add("setup_s", perfbench::median(setup_s), "s");
    rep.add("job_ms_p50", perfbench::median(latency), "ms");
    rep.add("job_ms_tail", tail.value, "ms");
    rep.add("jobs_per_s", static_cast<double>(jobs) / wall_s, "1/s");
    rep.add("worst_epe_nm", worst_epe, "nm");
    rep.add("mask_bytes", bytes / static_cast<double>(jobs), "B");
    rep.add("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  Layers L;
  L.set("trace.overhead_ratio", overhead);
  const Tile probe_tile =
      tiles_of(families[0].bases[0].lib, layout::layers::kPoly, 800).front();
  const litho::Simulator frame_sim(spec.sim, probe_tile.window);
  layer_counts(L, d, static_cast<double>(rounds), frame_sim.frame().ny);
  std::vector<double> connect, wait, run;
  for (const auto& per_client : outcomes) {
    for (const DaemonOutcome& o : per_client) {
      connect.push_back(o.connect_ms);
      wait.push_back(o.queue_wait_ms);
      run.push_back(o.run_ms);
    }
  }
  L.set("service.connect_ms", perfbench::median(connect));
  L.set("service.queue_wait_ms", perfbench::median(wait));
  L.set("service.run_ms", perfbench::median(run));
  for (const auto& phase : kPhases) {
    L.set("core." + phase + "_ms",
          perfbench::median(ledger.durations("core." + phase)));
  }
  std::vector<perfbench::SpanRecord> tile_spans =
      perfbench::parse_tracer_spans(tracer_json, "flow.solve.tile", trace_t0);
  for (auto& s : tile_spans) ledger.add(s);
  double solve_wall = 0.0;
  for (double v : ledger.durations("core.solve")) solve_wall += v;
  tile_span_stats(L, tile_spans, solve_wall, 1);

  // Reuse-layer probes on the shelves the run left on disk.
  double store_bytes = 0.0;
  for (const auto& e : fs::directory_iterator(daemon.shelves)) {
    store_bytes += static_cast<double>(fs::file_size(e.path()));
  }
  L.set("store.bytes", store_bytes);
  const std::uint64_t fp = opc::flow_fingerprint(spec, "flat");
  const std::string flat_ocs =
      (daemon.shelves / (fingerprint_hex(fp) + ".ocs")).string();
  std::size_t records = 0;
  L.set("store.load_ms", probe(ledger, "store.load", [&] {
          records = store::ResultStore::load(flat_ocs, fp).records.size();
        }));
  L.set("store.records", static_cast<double>(records));
  pat::PatternLibrary lib;
  const std::string flat_ocl =
      (daemon.shelves / (fingerprint_hex(fp) + ".ocl")).string();
  L.set("pattern.library_open_ms", probe(ledger, "pattern.library_open", [&] {
          lib = pat::PatternLibrary::open(flat_ocl, fp, false);
        }));
  // Per query: every entry's own feature, which must find a match.
  std::size_t found = 0;
  const double all_ms = probe(ledger, "pattern.nearest_all", [&] {
    found = 0;
    for (std::size_t i = 0; i < lib.size(); ++i) {
      found += lib.nearest(lib.feature(i), spec.library_budget) ? 1 : 0;
    }
  });
  rep.check(lib.size() > 0 && found == lib.size(),
            "pattern library lookups of its own entries came back empty");
  L.set("pattern.nearest_ms",
        lib.size() > 0 ? all_ms / static_cast<double>(lib.size()) : 0.0);

  util::ThreadPool worker(1);
  litho_probes(ledger, L, worker, probe_tile, spec);
  output_probes(ledger, L, cold[0][0].in, direct, spec, dir);
  ledger.write_json((dir / "spans.json").string());
  L.emit(rep);
}

// ---- entry ------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.out.empty()) throw std::invalid_argument("--out is required");
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
  const fs::path dir = fs::path(args.out) / args.workload;
  fs::remove_all(dir);
  fs::create_directories(dir);
  Report rep;
  rep.note("workload " + args.workload + ", seed " + std::to_string(args.seed) +
           ", " + util::format_double(args.seconds) + " s, trace " +
           (args.trace ? "1" : "0"));
  try {
    if (args.workload == "chip_socs") {
      BatchConfig cfg{perfbench::make_logic_chip(args.seed, 2, 2), false, 5};
      run_batch(args.workload, std::move(cfg), args.seconds, args.trace, dir, rep);
    } else if (args.workload == "ilt_escalate") {
      BatchConfig cfg{perfbench::make_escalation_chip(args.seed), true, 3};
      run_batch(args.workload, std::move(cfg), args.seconds, args.trace, dir, rep);
    } else if (args.workload == "daemon_reuse") {
      run_daemon(args.seed, args.seconds, args.trace, dir, rep);
    } else {
      std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
  print_report(args.workload, rep);
  return rep.failed == 0 ? 0 : 1;
}

#include "core/flow.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "core/correction_cache.h"
#include "lint/lint.h"
#include "pattern/feature.h"
#include "pattern/library.h"
#include "store/result_store.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace opckit::opc {

using geom::Polygon;
using geom::Rect;
using geom::Transform;
using layout::Cell;
using layout::Library;

namespace {

/// Message of a failed lint-shaped gate: the error count, the distinct
/// error codes, and the first few error findings, so the failure is
/// actionable without re-running `opckit lint`.
std::string gate_message(std::string_view gate,
                         const lint::LintReport& report) {
  std::set<std::string> error_codes;
  for (const lint::Diagnostic& d : report.findings()) {
    if (d.severity == lint::Severity::kError) error_codes.insert(d.code);
  }
  std::ostringstream os;
  os << gate << " found " << report.errors() << " error(s) [";
  bool first = true;
  for (const std::string& code : error_codes) {
    os << (first ? "" : " ") << code;
    first = false;
  }
  os << "]:";
  std::size_t shown = 0;
  for (const lint::Diagnostic& d : report.findings()) {
    if (d.severity != lint::Severity::kError) continue;
    os << (shown == 0 ? " " : "; ") << d.to_line();
    if (++shown == 3) break;
  }
  return os.str();
}

/// Static-analysis gate run before any correction: library structure and
/// geometry plus the model-parameter bands. Error findings abort.
void preflight_gate(const Library& lib, const FlowSpec& spec) {
  lint::LintOptions options;
  options.grid_nm = spec.opc.grid_nm;
  lint::LintReport report = lint::lint_library(lib, options);
  report.merge(lint::lint_sim_spec(spec.sim, options));
  report.merge(lint::lint_opc_spec(spec.opc, options));
  if (report.clean()) return;
  throw util::InputError(gate_message("pre-flight lint", report));
}

/// Runs the parallel phases under FlowSpec::jobs: 1 = inline in the
/// calling thread, 0 = the shared global pool, N > 1 = a pool owned by
/// this flow run. Tile bodies may call parallel_for themselves (the Abbe
/// source-point loop does); on a pool worker the nested call runs inline
/// per the ThreadPool protocol, so tiles never deadlock the pool and the
/// per-chunk accumulation order stays deterministic either way.
class TileExecutor {
 public:
  explicit TileExecutor(int jobs) : jobs_(jobs) {
    if (jobs > 1) {
      owned_ = std::make_unique<util::ThreadPool>(
          static_cast<std::size_t>(jobs));
    }
  }

  void run(std::size_t count, const std::function<void(std::size_t)>& fn) {
    if (count == 0) return;
    if (owned_) {
      owned_->parallel_for(count, fn);
    } else if (jobs_ == 0) {
      util::global_pool().parallel_for(count, fn);
    } else {
      for (std::size_t i = 0; i < count; ++i) fn(i);
    }
  }

 private:
  int jobs_;
  std::unique_ptr<util::ThreadPool> owned_;
};

/// One work unit of the driver — a distinct cell (cell flow) or a
/// placement (flat flow) — as listed by the flow before the phases run.
struct Tile {
  std::vector<Polygon> drawn;  ///< own input-layer shapes, tile frame
  Rect window;                 ///< solve window and cache-key frame
  geom::Region own_region;     ///< area of `drawn`
  Cell* out = nullptr;         ///< cell whose output layer gets `corrected`
  /// Latest merged mask of this tile (own shapes only). Starts as the
  /// drawn geometry, which is the flat flow's pass-0 context.
  std::vector<Polygon> corrected;
};

Tile make_tile(std::vector<Polygon> drawn, Rect window, Cell& out) {
  Tile tile;
  tile.own_region = geom::Region::from_polygons(drawn);
  tile.corrected = drawn;
  tile.drawn = std::move(drawn);
  tile.window = window;
  tile.out = &out;
  return tile;
}

/// Per-tile phase state of one pass: the simulation input assembled by
/// the gather phase, the cache decision from the resolve phase, and the
/// solver output from the solve phase.
struct TileWork {
  std::vector<Polygon> targets;     ///< own shapes + halo context
  CorrectionCache::Key key;         ///< valid when the cache is on
  CorrectionCache::Resolution res;  ///< valid when the cache is on
  bool replay = false;              ///< resolved to a cache replay
  ModelOpcResult result;            ///< valid when !replay
  /// Pattern-library near match: solve fresh but warm-start from these
  /// layout-frame seeds (set in the serial resolve phase, read-only in
  /// the parallel solve phase).
  bool warm = false;
  std::vector<store::WarmSeed> seeds;
  /// Pixel-ILT engine state (FlowSpec::engine kIlt/kEscalate): whether
  /// this tile's final geometry came from ILT, whether the model solver
  /// ran first and handed it over (kEscalate), and the measured EPE of
  /// the legalized ILT mask (the model solver reports its own; ILT is
  /// measured explicitly so FlowStats compares like with like).
  bool ilt = false;
  bool escalated = false;
  ilt::IltResult ilt_result;
  double ilt_max_epe = 0.0;
  double ilt_rms_epe = 0.0;
};

/// Solve one tile with the configured engine — a pure function of the
/// tile inputs, so the parallel solve phase stays deterministic at any
/// jobs count. kModel: the fragment solver alone. kIlt: pixel ILT on
/// every tile. kEscalate (the adaptive policy): model first, then ILT
/// for tiles whose model solve diverged or left a worst-case EPE above
/// the escalation threshold. ILT tiles measure the EPE of their
/// legalized mask at the model solver's probe sites, so the flow-level
/// EPE stats stay comparable across engines.
void solve_tile_engine(const FlowSpec& spec, const litho::SimSpec& sim,
                       const Rect& window, const WarmStart* warm,
                       TileWork& t) {
  if (spec.engine != CorrectionEngine::kIlt) {
    t.result = run_model_opc(t.targets, sim, window, spec.opc, warm);
    if (spec.engine == CorrectionEngine::kModel) return;
    const bool hard =
        !t.result.converged ||
        (!t.result.history.empty() &&
         t.result.final_iteration().max_abs_epe_nm >
             spec.ilt_escalation_epe_nm);
    if (!hard) return;
    t.escalated = true;
  }
  t.ilt = true;
  t.ilt_result = ilt::run_pixel_ilt(t.targets, sim, window, spec.ilt);
  const auto frags = fragment_polygons(t.targets, spec.opc.fragmentation);
  const std::vector<double> epes =
      measure_fragment_epe(t.targets, frags, t.ilt_result.corrected, sim,
                           window, spec.opc.probe_range_nm);
  double sum_sq = 0.0;
  std::size_t finite = 0;
  for (double e : epes) {
    if (std::isnan(e)) continue;
    t.ilt_max_epe = std::max(t.ilt_max_epe, std::abs(e));
    sum_sq += e * e;
    ++finite;
  }
  t.ilt_rms_epe = finite ? std::sqrt(sum_sq / static_cast<double>(finite))
                         : 0.0;
  // An escalated tile keeps the better of the two answers: ILT on a
  // tight window (few free pixels) can come back worse than the model
  // result that triggered it, and escalation must never regress a tile.
  if (t.escalated && !t.result.history.empty() &&
      t.result.final_iteration().max_abs_epe_nm < t.ilt_max_epe) {
    t.ilt = false;
  }
}

/// Every reuse path of a flow run around the one correction cache it
/// owns: the in-memory library and the store resume (exact replay of
/// earlier runs), the pattern-library file (exact replay, near-match
/// warm starts and accumulation), the record destinations fed from the
/// merge phase, and the fail_after_tiles fault injection (which works
/// with or without a store — a crash is a crash). Used only from the
/// flow's serial sections, so the TSan contract of the phases is
/// untouched.
class ReuseSession {
 public:
  ReuseSession(const FlowSpec& spec, std::string_view flow_kind,
               FlowStats& stats)
      : spec_(spec), cache_({spec.cache_symmetry}) {
    const std::pair<bool, const char*> hooks[] = {
        {spec.library != nullptr, "library"},
        {!spec.store_path.empty(), "store_path"},
        {static_cast<bool>(spec.record_sink), "record_sink"},
        {!spec.library_path.empty(), "library_path"},
    };
    for (const auto& [set, name] : hooks) {
      if (set && !spec.cache) {
        throw util::InputError(
            std::string("reuse: FlowSpec::") + name +
            " requires the correction cache (FlowSpec::cache) — reused "
            "solves are cache entries");
      }
    }
    // The in-memory library (the daemon's shelf) imports first, so its
    // entries win representative selection over file records — both
    // replay translation-exactly, so the choice cannot change output.
    if (spec.library) {
      for (std::size_t i = 0; i < spec.library->size(); ++i) {
        cache_.import_entry(spec.library->record(i));
      }
      stats.store_entries_loaded += spec.library->size();
    }
    if (!spec.store_path.empty()) {
      const std::uint64_t fp = flow_fingerprint(spec, flow_kind);
      if (spec.resume && std::filesystem::exists(spec.store_path)) {
        store::LoadResult loaded = store::ResultStore::load(
            spec.store_path, fp);  // throws InputError with the STO line
        for (const store::TileRecord& rec : loaded.records) {
          cache_.import_entry(rec);
        }
        stats.store_entries_loaded += loaded.records.size();
        stats.store_tail_recovered = loaded.tail_recovered;
        store_.emplace(
            store::ResultStore::append_to(spec.store_path, loaded.valid_bytes));
      } else {
        store_.emplace(store::ResultStore::create(spec.store_path, fp));
      }
    }
    // Library imports follow the store/in-memory entries in every
    // resolve bucket, so a pattern both hold replays as a store hit.
    preloaded_ = cache_.size();
    if (!spec.library_path.empty()) {
      lib_.emplace(pat::PatternLibrary::open(
          spec.library_path, flow_fingerprint(spec, flow_kind),
          /*sync_on_append=*/false));
      for (std::size_t i = 0; i < lib_->size(); ++i) {
        cache_.import_entry(lib_->record(i));
      }
      stats.library_entries_loaded += lib_->load_info().records_loaded;
      stats.library_tail_recovered = lib_->load_info().tail_recovered;
      trace::metrics()
          .counter(trace::metric::kPatLibraryRecordsLoaded)
          .add(lib_->load_info().records_loaded);
    }
    library_end_ = cache_.size();
  }

  /// Serial resolve phase, once per tile in placement order, so the
  /// choice of representative per pattern class is a pure function of
  /// the layout: look the tile up, account a library replay, and attach
  /// warm-start seeds to a miss with a near match under the budget.
  void resolve(TileWork& t, FlowStats& stats) {
    if (!spec_.cache) return;
    t.res = cache_.resolve(t.key);
    t.replay = t.res.outcome == CacheOutcome::kHit ||
               t.res.outcome == CacheOutcome::kSymmetryHit;
    if (t.replay) {
      if (t.res.entry >= preloaded_ && t.res.entry < library_end_) {
        ++stats.library_exact_hits;
        trace::metrics().counter(trace::metric::kPatLibraryExactHits).add();
      }
      return;
    }
    if (spec_.library_budget <= 0.0) return;
    const pat::PatternLibrary* src = lib_ ? &*lib_ : spec_.library;
    if (src == nullptr) return;
    const pat::PatternFeature query = pat::feature_of(t.key.window.rects);
    const std::optional<pat::NearMatch> near =
        src->nearest(query, spec_.library_budget);
    if (!near) return;
    // The retrieved seeds live in the matched entry's canonical frame;
    // similar patterns canonicalize into nearly aligned frames, so
    // mapping them through THIS tile's canonical transform puts each
    // seed close to the corresponding fragment site. Approximation is
    // fine — seeds are starting points, the convergence test still runs.
    const Transform from_canonical =
        CorrectionCache::canonical_transform(t.key).inverted();
    t.warm = true;
    t.seeds.reserve(src->record(near->index).seeds.size());
    for (const store::WarmSeed& s : src->record(near->index).seeds) {
      t.seeds.push_back({from_canonical(s.site), s.offset});
    }
    ++stats.library_near_hits;
    trace::metrics().counter(trace::metric::kPatLibraryNearHits).add();
  }

  /// The replayed mask of a tile that resolved to a replay.
  std::vector<Polygon> fetch(const TileWork& t) const {
    return cache_.fetch(t.res.entry, t.key);
  }

  /// Serial merge phase, once per merged tile in placement order (a
  /// replay's representative always merges first, so every store lands
  /// before the fetch that needs it): cache a fresh solve and send its
  /// record — with seeds for model solves; ILT output carries no
  /// fragment offsets to seed warm starts from — to the store, the
  /// library file and the sink; account a replay of an earlier run's
  /// entry; fire the fault injection.
  void merge(const TileWork& t, const std::vector<Polygon>& corrected,
             FlowStats& stats) {
    if (t.replay) {
      // Entries below preloaded_ came from the store file or the
      // in-memory library — either way, reuse from a previous run.
      if (t.res.entry < preloaded_) ++stats.store_hits;
    } else if (spec_.cache) {
      cache_.store(t.res.entry, t.key, corrected);
      if (t.warm && !t.ilt) {
        stats.library_warm_iterations += t.result.history.size();
        trace::metrics()
            .counter(trace::metric::kPatLibraryWarmIterations)
            .add(t.result.history.size());
      }
      if (store_ || lib_ || spec_.record_sink) save(t, stats);
    }
    ++merged_;
    if (spec_.fail_after_tiles >= 0 &&
        merged_ >= static_cast<std::size_t>(spec_.fail_after_tiles)) {
      throw FlowAborted("flow aborted by FlowSpec::fail_after_tiles after " +
                        std::to_string(merged_) + " merged tiles");
    }
  }

  void finish(FlowStats& stats) const {
    const CorrectionCacheStats& cs = cache_.stats();
    stats.cache_hits = cs.hits + cs.symmetry_hits;
    stats.cache_misses = cs.misses;
    stats.cache_conflicts = cs.conflicts;
  }

 private:
  /// Send a fresh solve's record to every attached destination.
  void save(const TileWork& t, FlowStats& stats) {
    store::TileRecord rec = cache_.export_entry(t.res.entry);
    if (!t.ilt) {
      const Transform to_canonical =
          CorrectionCache::canonical_transform(t.key);
      rec.seeds.reserve(t.result.seeds.size());
      for (const store::WarmSeed& s : t.result.seeds) {
        rec.seeds.push_back({to_canonical(s.site), s.offset});
      }
    }
    if (store_) {
      store_->append(rec);
      ++stats.store_entries_appended;
    }
    if (lib_ && lib_->insert(rec)) {
      ++stats.library_entries_appended;
      trace::metrics()
          .counter(trace::metric::kPatLibraryRecordsAppended)
          .add();
    }
    if (spec_.record_sink) spec_.record_sink(rec);
  }

  const FlowSpec& spec_;
  CorrectionCache cache_;
  std::optional<store::ResultStore> store_;
  std::optional<pat::PatternLibrary> lib_;
  /// Cache entries below preloaded_ came from the in-memory library or
  /// the store file; those in [preloaded_, library_end_) from the
  /// library file.
  std::size_t preloaded_ = 0;
  std::size_t library_end_ = 0;
  std::size_t merged_ = 0;
};

double elapsed_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// RAII guard for one flow phase: a trace span plus accumulation of the
/// phase's wall-clock into its flow.phase.*_ms gauge. Constructed and
/// destroyed on the flow's driver thread only; the parallel work inside
/// traces itself with per-tile spans.
class PhaseScope {
 public:
  PhaseScope(const char* span_name, const char* gauge_name)
      : span_(span_name),
        gauge_name_(gauge_name),
        t0_(std::chrono::steady_clock::now()) {}
  ~PhaseScope() { trace::metrics().gauge(gauge_name_).add(elapsed_ms(t0_)); }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  trace::Span span_;
  const char* gauge_name_;
  std::chrono::steady_clock::time_point t0_;
};

/// A tile's share of its fresh solve. Model output keeps the polygons
/// overlapping the tile's drawn area, dropping the neighbour context.
/// ILT can synthesize free-floating assists that overlap no drawn shape,
/// so its share is everything inside the window (the legalizer clips to
/// it); the locked context passthrough sits outside and drops.
std::vector<Polygon> keep_own(const Tile& tile, const TileWork& t) {
  std::vector<Polygon> own;
  if (t.ilt) {
    for (const auto& p : t.ilt_result.corrected) {
      if (tile.window.contains(p.bbox())) own.push_back(p);
    }
  } else {
    for (const auto& p : t.result.corrected) {
      if (!tile.own_region.intersected(geom::Region(p)).empty()) {
        own.push_back(p);
      }
    }
  }
  return own;
}

/// Fold one freshly solved tile into the flow accounting. The tile's
/// simulation budget is its model iterations (none under kIlt) plus any
/// ILT descent steps (none under kModel), so an escalation that kept the
/// model answer (solve_tile_engine's never-regress rule) still pays for
/// the descent it ran. The EPE and convergence contribution come from
/// whichever answer the tile kept. ilt_escalated counts escalation
/// attempts; ilt_tiles and ilt_iterations count ILT outputs only.
void account_solve(const TileWork& t, FlowStats& stats) {
  const auto ilt_steps = static_cast<std::size_t>(t.ilt_result.iterations);
  const std::size_t sims = t.result.history.size() + ilt_steps;
  ++stats.opc_runs;
  stats.simulations += sims;
  stats.tile_simulations.push_back(sims);
  if (t.ilt) {
    stats.all_converged = stats.all_converged && t.ilt_result.converged;
    stats.max_abs_epe_nm = std::max(stats.max_abs_epe_nm, t.ilt_max_epe);
    stats.worst_rms_epe_nm = std::max(stats.worst_rms_epe_nm, t.ilt_rms_epe);
    ++stats.ilt_tiles;
    stats.ilt_iterations += ilt_steps;
  } else {
    stats.all_converged = stats.all_converged && t.result.converged;
    if (!t.result.history.empty()) {
      const OpcIteration& last = t.result.final_iteration();
      stats.max_abs_epe_nm =
          std::max(stats.max_abs_epe_nm, last.max_abs_epe_nm);
      stats.worst_rms_epe_nm =
          std::max(stats.worst_rms_epe_nm, last.rms_epe_nm);
    }
  }
  if (t.escalated) {
    ++stats.ilt_escalated;
    trace::metrics().counter(trace::metric::kIltEscalations).add(1);
  }
}

/// End of a flow run: publish the flow-level counters and the per-tile
/// simulation histogram into the process-wide registry, then embed this
/// run's registry delta (which also picked up the litho/cache/store
/// counters incremented along the way) in the stats.
void publish_flow_metrics(const trace::MetricsSnapshot& before,
                          FlowStats& stats) {
  trace::MetricsRegistry& reg = trace::metrics();
  reg.counter(trace::metric::kFlowTilesMerged)
      .add(stats.tile_simulations.size());
  reg.counter(trace::metric::kFlowOpcRuns).add(stats.opc_runs);
  reg.counter(trace::metric::kFlowSimulations).add(stats.simulations);
  reg.counter(trace::metric::kFlowCorrectedPolygons)
      .add(stats.corrected_polygons);
  trace::HistogramMetric& hist =
      reg.histogram(trace::metric::kFlowTileSimulations);
  for (std::size_t n : stats.tile_simulations) {
    hist.observe(static_cast<double>(n));
  }
  stats.metrics = trace::MetricsSnapshot::delta(before, reg.snapshot());
}

/// Driver-thread dispatch for the FlowSpec::cancel / FlowSpec::progress
/// hooks. Every call happens on the flow's serial driver thread, between
/// phases or between merged tiles, so handlers never race the flow.
class JobHooks {
 public:
  explicit JobHooks(const FlowSpec& spec) : spec_(spec) {}

  /// Phase boundary: poll cancellation, then announce the phase.
  void phase(std::string_view name, int pass, std::size_t total) {
    check_cancel();
    if (spec_.progress) spec_.progress({name, pass, 0, total});
  }

  /// One merged tile (progress only; the merge loop polls cancel at the
  /// top of each iteration so a cancelled run never half-merges a tile).
  void tile_merged(int pass, std::size_t done, std::size_t total) {
    if (spec_.progress) spec_.progress({"merge", pass, done, total});
  }

  void check_cancel() const {
    if (spec_.cancel && spec_.cancel->load(std::memory_order_relaxed)) {
      throw FlowAborted("flow cancelled by FlowSpec::cancel");
    }
  }

 private:
  const FlowSpec& spec_;
};

/// Seal the signoff report: fold each gate tile's violations (tile
/// order — the histogram observation order matches tile_simulations),
/// then the global findings, into the merged report in canonical order.
void seal_mrc_report(std::vector<std::vector<mrc::Violation>> per_tile,
                     std::vector<mrc::Violation> global, bool dedup,
                     FlowStats& stats) {
  std::vector<mrc::Violation> merged;
  for (std::vector<mrc::Violation>& tile : per_tile) {
    stats.tile_mrc_violations.push_back(tile.size());
    trace::metrics().counter(trace::metric::kMrcTilesChecked).add(1);
    trace::metrics()
        .histogram(trace::metric::kMrcTileViolations)
        .observe(static_cast<double>(tile.size()));
    for (mrc::Violation& v : tile) merged.push_back(std::move(v));
  }
  for (mrc::Violation& v : global) merged.push_back(std::move(v));
  if (dedup) mrc::sort_and_dedup(merged);
  stats.mrc.violations = std::move(merged);
  stats.mrc_checked = true;
  trace::metrics()
      .counter(trace::metric::kMrcViolations)
      .add(stats.mrc.violations.size());
}

/// Cell-flow signoff: cells are corrected in isolation, so they are
/// signed off the same way — one gate tile per cell, full deck (a cell
/// is its own connectivity universe here, so the area check tiles too).
/// The report concatenates the cells in sorted order, NOT deduplicated:
/// two cells with identical local geometry are distinct masks.
void signoff_cells(const FlowSpec& spec, TileExecutor& exec,
                   const std::vector<Tile>& tiles, FlowStats& stats) {
  std::vector<std::vector<mrc::Violation>> per_tile(tiles.size());
  exec.run(tiles.size(), [&](std::size_t i) {
    trace::Span span("flow.mrc.tile", static_cast<std::int64_t>(i));
    per_tile[i] =
        mrc::check_polygons(tiles[i].corrected, spec.mrc_deck).violations;
  });
  seal_mrc_report(std::move(per_tile), {}, /*dedup=*/false, stats);
}

/// Flat-flow signoff: sweep the written flat mask per placement tile, in
/// parallel. Each tile's window is its corrected extent, not the drawn
/// one: corrected edges can move outward and the kept zones must cover
/// every marker. Every edge-pair/boundary check is a local function of
/// the geometry within the largest rule distance of its marker, so a
/// tile checks the un-clipped polygons within `2 * rule_max` of its
/// window and keeps the violations whose marker touches the window
/// inflated by `rule_max` — every polygon a kept marker depends on is
/// inside the query zone, so a kept violation is exact, and every
/// violation on the mask falls inside at least one tile's kept zone.
/// Straddling markers surface from several tiles and collapse in
/// sort_and_dedup. The connected-component area check does not tile, so
/// it runs once over the whole mask.
void signoff_flat(const FlowSpec& spec, TileExecutor& exec,
                  const std::vector<Tile>& tiles, FlowStats& stats) {
  mrc::Deck edge_deck;
  mrc::Deck area_deck;
  geom::Coord rule_max = 0;
  for (const mrc::Check& c : spec.mrc_deck) {
    if (c.kind == mrc::CheckKind::kArea) {
      area_deck.push_back(c);
    } else {
      edge_deck.push_back(c);
      rule_max = std::max(rule_max, c.value);
    }
  }
  std::vector<Polygon> pool;
  std::vector<Rect> windows;
  windows.reserve(tiles.size());
  Rect chip_box = geom::Rect::empty();
  for (const Tile& tile : tiles) {
    Rect w = geom::Rect::empty();
    for (const auto& p : tile.corrected) {
      w = w.united(p.bbox());
      pool.push_back(p);
    }
    windows.push_back(w);
    chip_box = chip_box.united(w);
  }
  if (chip_box.is_empty()) {
    seal_mrc_report({}, {}, /*dedup=*/true, stats);
    return;
  }
  const geom::Coord margin = 2 * rule_max;
  geom::TileIndex index(chip_box.inflated(margin + 256), 2048);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    index.insert(i, pool[i].bbox());
  }

  std::vector<std::vector<mrc::Violation>> per_tile(windows.size());
  exec.run(windows.size(), [&](std::size_t i) {
    trace::Span span("flow.mrc.tile", static_cast<std::int64_t>(i));
    const Rect window = windows[i];
    if (window.is_empty() || edge_deck.empty()) return;
    std::vector<Polygon> local;
    for (std::size_t id : index.query(window.inflated(margin))) {
      local.push_back(pool[id]);
    }
    mrc::MrcReport report = mrc::check_polygons(local, edge_deck);
    const Rect keep = window.inflated(rule_max);
    for (mrc::Violation& v : report.violations) {
      if (v.marker.touches(keep)) per_tile[i].push_back(std::move(v));
    }
  });
  std::vector<mrc::Violation> area;
  if (!area_deck.empty()) {
    area = mrc::check_mask(geom::Region::from_polygons(pool), area_deck)
               .violations;
  }
  seal_mrc_report(std::move(per_tile), std::move(area), /*dedup=*/true,
                  stats);
}

/// Evaluate FlowSpec::mrc_action once the stats are sealed. kFail
/// throws on error-severity findings only (MRC005 jogs warn).
void apply_mrc_action(const FlowSpec& spec, FlowStats& stats) {
  if (!stats.mrc_checked || spec.mrc_action != mrc::Action::kFail) return;
  const lint::LintReport lint = mrc::to_lint_report(stats.mrc);
  if (lint.clean()) return;
  throw MrcGateError(gate_message("MRC signoff gate", lint),
                     std::move(stats));
}

/// The steps in which the cell and flat flows differ; everything else
/// is the one driver below.
struct FlowPlan {
  const char* span;             ///< "flow.cell" | "flow.flat"
  std::string_view kind;        ///< flow_fingerprint() flow kind
  /// Lists the tiles in the placement order every serial phase follows.
  std::vector<Tile> (*list_tiles)(Library&, const std::string& top,
                                  const FlowSpec&);
  litho::SimSpec sim;           ///< imaging spec of the solve phase
  int passes;                   ///< context passes (cell flow: 1)
  /// Gather each tile's halo context from the other tiles' latest masks.
  bool halo_context;
  void (*signoff)(const FlowSpec&, TileExecutor&, const std::vector<Tile>&,
                  FlowStats&);
};

/// Distinct cells reachable from \p top with shapes on the input layer,
/// each corrected in isolation in its own frame and written back to
/// itself; the sorted std::set order is the placement order.
std::vector<Tile> list_cells(Library& lib, const std::string& top,
                             const FlowSpec& spec) {
  std::set<std::string> reachable;
  std::vector<std::string> queue{top};
  while (!queue.empty()) {
    const std::string name = queue.back();
    queue.pop_back();
    if (!reachable.insert(name).second) continue;
    for (const auto& ref : lib.at(name).refs()) queue.push_back(ref.child);
  }
  std::vector<Tile> tiles;
  for (const std::string& name : reachable) {
    Cell& cell = lib.cell(name);
    const auto shapes = cell.shapes(spec.input_layer);
    if (shapes.empty()) continue;
    tiles.push_back(make_tile({shapes.begin(), shapes.end()},
                              cell.local_bbox(), cell));
  }
  return tiles;
}

/// Every placement (cell instance with shapes on the input layer) in
/// chip coordinates, depth-first like Library::flatten; all of them
/// write to \p top.
std::vector<Tile> list_placements(Library& lib, const std::string& top,
                                  const FlowSpec& spec) {
  std::vector<Tile> tiles;
  std::vector<std::pair<std::string, Transform>> stack{{top, Transform{}}};
  while (!stack.empty()) {
    auto [name, t] = stack.back();
    stack.pop_back();
    const Cell& cell = lib.at(name);
    if (!cell.shapes(spec.input_layer).empty()) {
      std::vector<Polygon> drawn;
      Rect window = geom::Rect::empty();
      for (const auto& s : cell.shapes(spec.input_layer)) {
        Polygon placed = t(s);
        window = window.united(placed.bbox());
        drawn.push_back(std::move(placed));
      }
      tiles.push_back(make_tile(std::move(drawn), window, lib.cell(top)));
    }
    for (const auto& ref : cell.refs()) {
      for (int r = 0; r < ref.rows; ++r) {
        for (int c = 0; c < ref.columns; ++c) {
          stack.emplace_back(ref.child, t * ref.element_transform(c, r));
        }
      }
    }
  }
  return tiles;
}

/// The tiled driver both flows run: list the tiles, then per context
/// pass gather → resolve → solve → merge, write the merged masks to the
/// output cells, and sign them off (see the execution model in flow.h).
FlowStats run_tiled_flow(Library& lib, const std::string& top,
                         const FlowSpec& spec, const FlowPlan& plan) {
  const auto t0 = std::chrono::steady_clock::now();
  const trace::MetricsSnapshot before = trace::metrics().snapshot();
  trace::Span flow_span(plan.span);
  if (spec.preflight) preflight_gate(lib, spec);
  lib.validate();
  FlowStats stats;

  std::vector<Tile> tiles = plan.list_tiles(lib, top, spec);
  const std::size_t n = tiles.size();
  Rect chip_box = geom::Rect::empty();
  for (const Tile& tile : tiles) chip_box = chip_box.united(tile.window);

  ReuseSession reuse(spec, plan.kind, stats);
  TileExecutor exec(spec.jobs);
  JobHooks hooks(spec);

  for (int pass = 0; pass < plan.passes; ++pass) {
    // Context pool for this pass: every tile's latest mask state, frozen
    // before the phases start, so gathers are read-only.
    std::vector<Polygon> pool;
    std::optional<geom::TileIndex> pool_index;
    if (plan.halo_context && !chip_box.is_empty()) {
      for (const Tile& tile : tiles) {
        pool.insert(pool.end(), tile.corrected.begin(), tile.corrected.end());
      }
      pool_index.emplace(chip_box.inflated(spec.halo_nm + 256), 2048);
      for (std::size_t i = 0; i < pool.size(); ++i) {
        pool_index->insert(i, pool[i].bbox());
      }
    }
    std::vector<TileWork> work(n);

    // Phase A — gather (parallel): own DRAWN shapes (design intent never
    // goes stale) plus, in the flat flow, the latest corrected
    // neighbours as context.
    {
      hooks.phase("gather", pass, n);
      PhaseScope phase("flow.gather", trace::metric::kFlowPhaseGatherMs);
      exec.run(n, [&](std::size_t i) {
        trace::Span span("flow.gather.tile", static_cast<std::int64_t>(i));
        const Tile& tile = tiles[i];
        TileWork& t = work[i];
        t.targets = tile.drawn;
        if (pool_index) {
          for (std::size_t id :
               pool_index->query(tile.window.inflated(spec.halo_nm))) {
            const Polygon& cand = pool[id];
            // Skip our own shapes: anything overlapping our drawn area
            // is ours (moves are far smaller than placement spacing).
            if (!tile.own_region.intersected(geom::Region(cand.normalized()))
                     .empty()) {
              continue;
            }
            t.targets.push_back(cand);
          }
        }
        if (spec.cache) {
          t.key = CorrectionCache::make_key(t.targets, tile.own_region,
                                            tile.window);
        }
      });
    }

    // Phase B — resolve (serial, placement order).
    {
      hooks.phase("resolve", pass, n);
      PhaseScope phase("flow.resolve", trace::metric::kFlowPhaseResolveMs);
      for (TileWork& t : work) reuse.resolve(t, stats);
    }

    // Phase C — solve (parallel; solve_tile_engine is a pure function of
    // the per-tile inputs, warm seeds included — they were fixed
    // serially).
    {
      hooks.phase("solve", pass, n);
      PhaseScope phase("flow.solve", trace::metric::kFlowPhaseSolveMs);
      exec.run(n, [&](std::size_t i) {
        TileWork& t = work[i];
        if (t.replay) return;
        trace::Span span("flow.solve.tile", static_cast<std::int64_t>(i));
        WarmStart warm;
        if (t.warm) warm.seeds = t.seeds;
        solve_tile_engine(spec, plan.sim, tiles[i].window,
                          t.warm ? &warm : nullptr, t);
      });
    }

    // Phase D — merge (serial, placement order): account, replay or
    // keep the fresh solve, feed the reuse session.
    {
      hooks.phase("merge", pass, n);
      PhaseScope phase("flow.merge", trace::metric::kFlowPhaseMergeMs);
      for (std::size_t i = 0; i < n; ++i) {
        hooks.check_cancel();
        TileWork& t = work[i];
        if (t.replay) {
          tiles[i].corrected = reuse.fetch(t);
          stats.tile_simulations.push_back(0);
        } else {
          account_solve(t, stats);
          tiles[i].corrected = keep_own(tiles[i], t);
        }
        reuse.merge(t, tiles[i].corrected, stats);
        hooks.tile_merged(pass, i + 1, n);
      }
    }
  }

  for (Tile& tile : tiles) tile.out->clear_layer(spec.output_layer);
  for (const Tile& tile : tiles) {
    for (const auto& p : tile.corrected) {
      tile.out->add_polygon(spec.output_layer, p);
      ++stats.corrected_polygons;
    }
  }

  // Phase E — MRC signoff (parallel, read-only on the written output).
  if (!spec.mrc_deck.empty()) {
    hooks.phase("mrc", plan.passes - 1, n);
    PhaseScope phase("flow.mrc", trace::metric::kFlowPhaseMrcMs);
    plan.signoff(spec, exec, tiles, stats);
  }

  reuse.finish(stats);
  publish_flow_metrics(before, stats);
  stats.wall_ms = elapsed_ms(t0);
  apply_mrc_action(spec, stats);
  return stats;
}

}  // namespace

std::uint64_t flow_fingerprint(const FlowSpec& spec,
                               std::string_view flow_kind) {
  // FNV-1a over the byte stream of every output-affecting knob. Field
  // order is append-only: new knobs go at the END so adding one changes
  // the fingerprint for non-default values only by design review, not
  // accident.
  std::uint64_t h = 14695981039346656037ULL;
  auto mix_u64 = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  auto mix_d = [&](double v) { mix_u64(std::bit_cast<std::uint64_t>(v)); };
  auto mix_i = [&](std::int64_t v) {
    mix_u64(static_cast<std::uint64_t>(v));
  };
  for (char c : flow_kind) mix_u64(static_cast<std::uint8_t>(c));

  const ModelOpcSpec& o = spec.opc;
  mix_i(o.fragmentation.target_length);
  mix_i(o.fragmentation.corner_length);
  mix_i(o.fragmentation.min_length);
  mix_i(o.fragmentation.line_end_max);
  mix_i(o.max_iterations);
  mix_d(o.gain);
  mix_i(o.max_move_per_iter);
  mix_i(o.max_total_offset);
  mix_d(o.epe_tolerance_nm);
  mix_d(o.probe_range_nm);
  mix_i(o.grid_nm);
  mix_i(o.min_mask_space_nm);
  mix_i(o.min_tip_gap_nm);
  mix_d(o.corner_gain_scale);
  mix_i(o.corner_max_offset);

  const litho::SimSpec& s = spec.sim;
  mix_d(s.optics.wavelength_nm);
  mix_d(s.optics.na);
  mix_i(static_cast<std::int64_t>(s.optics.source.shape));
  mix_d(s.optics.source.sigma_outer);
  mix_d(s.optics.source.sigma_inner);
  mix_d(s.optics.source.pole_center);
  mix_d(s.optics.source.pole_radius);
  mix_i(s.optics.source.grid);
  mix_d(s.optics.aberrations.coma_x_nm);
  mix_d(s.optics.aberrations.coma_y_nm);
  mix_d(s.optics.aberrations.astig_nm);
  mix_i(static_cast<std::int64_t>(s.mask.type));
  mix_d(s.mask.background_transmission);
  mix_d(s.resist.threshold);
  mix_d(s.resist.diffusion_nm);
  mix_d(s.pixel_nm);
  mix_i(s.guard_nm);

  mix_i(spec.halo_nm);
  mix_i(spec.input_layer.layer);
  mix_i(spec.input_layer.datatype);
  mix_i(spec.output_layer.layer);
  mix_i(spec.output_layer.datatype);
  mix_i(spec.flat_context_passes);
  mix_u64(spec.cache_symmetry ? 1 : 0);
  // Imaging engine selection and its truncation ε change the aerial
  // intensities, hence the corrected output (appended fields; abbe with
  // default ε hashes differently from pre-SOCS builds by design).
  mix_i(static_cast<std::int64_t>(s.imaging));
  mix_d(s.socs_epsilon);
  // Pattern-library warm starts move the solver's initial offsets, hence
  // the corrected mask (within tolerance): the near-match budget is
  // output-affecting (appended field). The library's path is not — it
  // names a file, not a setup — and its content is bound to this
  // fingerprint by the file header.
  mix_d(spec.library_budget);
  // The correction engine and the pixel-ILT knobs select and shape the
  // solver, so they rewrite the output mask wholesale (appended fields;
  // stores from pre-ILT builds hash differently by design).
  mix_i(static_cast<std::int64_t>(spec.engine));
  mix_d(spec.ilt_escalation_epe_nm);
  const ilt::IltSpec& il = spec.ilt;
  mix_i(il.max_iterations);
  mix_d(il.step);
  mix_d(il.sigmoid_steepness);
  mix_d(il.edge_weight);
  mix_d(il.edge_band_nm);
  mix_d(il.convergence_tol);
  mix_d(il.mask_threshold);
  mix_i(il.min_width_nm);
  mix_i(il.min_space_nm);
  mix_i(il.min_corner_nm);
  mix_d(il.min_area_nm2);
  // The imaging engines' revision: identical knobs can still move the
  // intensities when the engines change how they sum (appended field).
  mix_i(kImagingEngineRevision);
  return h;
}

std::string render_stats_json(const FlowStats& stats) {
  // Doubles go through util::format_double: the stream's default 6
  // significant digits silently truncated wall_ms and the EPE fields,
  // and the stream is locale-sensitive (a user locale with ',' decimal
  // points produces invalid JSON).
  std::ostringstream os;
  os << "{\"opc_runs\":" << stats.opc_runs
     << ",\"simulations\":" << stats.simulations
     << ",\"corrected_polygons\":" << stats.corrected_polygons
     << ",\"all_converged\":" << (stats.all_converged ? "true" : "false")
     << ",\"max_abs_epe_nm\":" << util::format_double(stats.max_abs_epe_nm)
     << ",\"worst_rms_epe_nm\":"
     << util::format_double(stats.worst_rms_epe_nm)
     << ",\"cache\":{\"hits\":" << stats.cache_hits
     << ",\"misses\":" << stats.cache_misses
     << ",\"conflicts\":" << stats.cache_conflicts << "}"
     << ",\"store\":{\"hits\":" << stats.store_hits
     << ",\"entries_loaded\":" << stats.store_entries_loaded
     << ",\"entries_appended\":" << stats.store_entries_appended
     << ",\"tail_recovered\":"
     << (stats.store_tail_recovered ? "true" : "false") << "}"
     << ",\"library\":{\"exact_hits\":" << stats.library_exact_hits
     << ",\"near_hits\":" << stats.library_near_hits
     << ",\"entries_loaded\":" << stats.library_entries_loaded
     << ",\"entries_appended\":" << stats.library_entries_appended
     << ",\"warm_iterations\":" << stats.library_warm_iterations
     << ",\"tail_recovered\":"
     << (stats.library_tail_recovered ? "true" : "false") << "}"
     << ",\"ilt\":{\"tiles\":" << stats.ilt_tiles
     << ",\"escalated\":" << stats.ilt_escalated
     << ",\"iterations\":" << stats.ilt_iterations << "}"
     << ",\"tile_simulations\":[";
  for (std::size_t i = 0; i < stats.tile_simulations.size(); ++i) {
    os << (i ? "," : "") << stats.tile_simulations[i];
  }
  os << "],\"mrc\":{\"checked\":" << (stats.mrc_checked ? "true" : "false")
     << ",\"violations\":" << stats.mrc.violations.size() << ",\"by_rule\":{";
  std::map<std::string, std::size_t> by_rule;
  for (const mrc::Violation& v : stats.mrc.violations) ++by_rule[v.rule];
  bool first_rule = true;
  for (const auto& [rule, n] : by_rule) {
    os << (first_rule ? "" : ",") << "\"" << rule << "\":" << n;
    first_rule = false;
  }
  os << "},\"tile_violations\":[";
  for (std::size_t i = 0; i < stats.tile_mrc_violations.size(); ++i) {
    os << (i ? "," : "") << stats.tile_mrc_violations[i];
  }
  os << "]},\"wall_ms\":" << util::format_double(stats.wall_ms)
     << ",\"metrics\":" << trace::render_metrics_json(stats.metrics) << "}";
  return os.str();
}

FlowStats run_cell_opc(Library& lib, const std::string& top,
                       const FlowSpec& spec) {
  return run_tiled_flow(lib, top, spec,
                        {"flow.cell", "cell", list_cells, spec.sim,
                         /*passes=*/1, /*halo_context=*/false,
                         signoff_cells});
}

FlowStats run_flat_opc(Library& lib, const std::string& top,
                       const FlowSpec& spec) {
  // The imaging frame must cover the whole context halo, or context
  // shapes near the frame edge enter the simulation clipped and the
  // "true context" promise silently degrades.
  litho::SimSpec sim = spec.sim;
  sim.guard_nm = std::max(spec.sim.guard_nm, spec.halo_nm);
  return run_tiled_flow(lib, top, spec,
                        {"flow.flat", "flat", list_placements, sim,
                         std::max(1, spec.flat_context_passes),
                         /*halo_context=*/true, signoff_flat});
}

}  // namespace opckit::opc

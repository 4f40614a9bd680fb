/// CorrectionLibrary + FlowSpec service-hook tests: cross-run sharing,
/// dedup, durable reload, and the preload/record_sink/cancel/progress
/// plumbing the daemon builds on (src/service/library.h, core/flow.h).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "core/flow.h"
#include "flow_reuse_hooks.h"
#include "layout/generators.h"
#include "service/library.h"

namespace opckit::svc {
namespace {

using layout::Library;

opc::FlowSpec fast_flow() {
  opc::FlowSpec spec;
  spec.sim.optics.source.grid = 5;
  litho::calibrate_threshold(spec.sim, 180, 360);
  spec.opc.max_iterations = 2;
  spec.input_layer = layout::layers::kPoly;
  spec.output_layer = layout::layers::kPolyOpc;
  return spec;
}

/// Repeated-placement chip: pitch far above the halo, so every placement
/// is one pattern class and replay coverage is total.
Library sparse_chip(int cols = 3, int rows = 3) {
  Library lib("chip");
  layout::Cell& leaf = lib.cell("leaf");
  leaf.add_rect(layout::layers::kPoly, geom::Rect(0, 0, 180, 1200));
  leaf.add_rect(layout::layers::kPoly, geom::Rect(540, 0, 720, 1200));
  layout::make_chip(lib, "top", "leaf", cols, rows, {4000, 4000});
  return lib;
}

std::vector<geom::Polygon> output_polys(const Library& lib,
                                        const opc::FlowSpec& spec) {
  const auto shapes = lib.at("top").shapes(spec.output_layer);
  return {shapes.begin(), shapes.end()};
}

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

store::TileRecord sample_record(geom::Coord x) {
  store::TileRecord rec;
  rec.window_rects.push_back(geom::Rect(x, 0, x + 180, 1200));
  rec.own_rects = rec.window_rects;
  rec.frame = geom::Rect(x - 800, -800, x + 980, 2000);
  rec.solution.push_back(
      geom::Polygon(geom::Rect(x, 0, x + 182, 1200)));
  return rec;
}

TEST(ServiceLibrary, SnapshotOfFreshFingerprintIsEmpty) {
  CorrectionLibrary lib({});
  EXPECT_TRUE(lib.snapshot(42).empty());
  EXPECT_EQ(lib.size(42), 0u);
}

TEST(ServiceLibrary, AddDeduplicatesByFullRecordEquality) {
  CorrectionLibrary lib({});
  lib.add(1, sample_record(0));
  lib.add(1, sample_record(0));  // identical: dropped
  EXPECT_EQ(lib.size(1), 1u);
  lib.add(1, sample_record(500));  // different geometry: kept
  EXPECT_EQ(lib.size(1), 2u);
  // Same geometry, different solution: NOT equal, kept (first match
  // still wins at resolve time — import order decides).
  store::TileRecord variant = sample_record(0);
  variant.solution.clear();
  lib.add(1, variant);
  EXPECT_EQ(lib.size(1), 3u);
}

TEST(ServiceLibrary, ShelvesAreIndependentPerFingerprint) {
  CorrectionLibrary lib({});
  lib.add(1, sample_record(0));
  lib.add(2, sample_record(0));
  EXPECT_EQ(lib.size(1), 1u);
  EXPECT_EQ(lib.size(2), 1u);
  EXPECT_TRUE(lib.snapshot(3).empty());
}

TEST(ServiceLibrary, DurableShelfReloadsAcrossInstances) {
  const std::string dir = temp_dir("svc_lib_reload");
  {
    CorrectionLibrary lib({dir, /*sync_on_append=*/true});
    lib.add(7, sample_record(0));
    lib.add(7, sample_record(500));
    EXPECT_TRUE(std::filesystem::exists(lib.path_for(7)));
  }
  // A second instance over the same directory — the daemon-restart path.
  CorrectionLibrary lib2({dir, true});
  const auto shelf = lib2.snapshot(7);
  ASSERT_EQ(shelf.size(), 2u);
  EXPECT_EQ(shelf[0], sample_record(0));
  EXPECT_EQ(shelf[1], sample_record(500));
  // Dedup survives the reload: re-adding a loaded record is a no-op.
  lib2.add(7, sample_record(0));
  EXPECT_EQ(lib2.size(7), 2u);
}

TEST(ServiceLibrary, MemoryOnlyModeWritesNoFiles) {
  CorrectionLibrary lib({});
  lib.add(1, sample_record(0));
  EXPECT_EQ(lib.path_for(1), "");
}

TEST(ServiceLibrary, FingerprintKeyedFileNames) {
  CorrectionLibrary lib({"/some/dir", true});
  EXPECT_EQ(lib.path_for(0xDEADBEEF),
            "/some/dir/00000000deadbeef.ocs");
}

// ---- FlowSpec service hooks -------------------------------------------

TEST(ServiceLibrary, PreloadAndRecordSinkRoundTripThroughFlow) {
  const opc::FlowSpec base = fast_flow();
  const std::uint64_t fp = opc::flow_fingerprint(base, "flat");
  CorrectionLibrary shared({});

  // First run: everything solves fresh; every class lands in the library
  // via record_sink.
  Library chip1 = sparse_chip();
  opc::FlowSpec first = base;
  first.record_sink = [&](const store::TileRecord& rec) {
    shared.add(fp, rec);
  };
  const opc::FlowStats stats1 = opc::run_flat_opc(chip1, "top", first);
  EXPECT_GT(stats1.opc_runs, 0u);
  EXPECT_GT(shared.size(fp), 0u);

  // Second run, fresh process state: preloaded snapshot replays every
  // tile — zero solves — and the output is byte-identical.
  Library chip2 = sparse_chip();
  opc::FlowSpec second = base;
  const std::vector<store::TileRecord> shelf = shared.snapshot(fp);
  second.preload = &shelf;
  const opc::FlowStats stats2 = opc::run_flat_opc(chip2, "top", second);
  EXPECT_EQ(stats2.opc_runs, 0u);
  EXPECT_EQ(stats2.store_entries_loaded, shelf.size());
  EXPECT_GT(stats2.store_hits, 0u);
  EXPECT_EQ(output_polys(chip1, base), output_polys(chip2, base));
}

TEST(ServiceLibrary, PreloadRequiresCache) {
  // The daemon's two hooks: the shelf it preloads and the sink it
  // records fresh solves through.
  for (const char* hook : {"preload", "record_sink"}) {
    opc::testing_hooks::expect_hook_requires_cache(
        hook, fast_flow(), [] { return sparse_chip(1, 1); });
  }
}

TEST(ServiceLibrary, PreSetCancelAbortsBeforeAnyWork) {
  Library chip = sparse_chip(1, 1);
  opc::FlowSpec spec = fast_flow();
  const std::atomic<bool> cancel{true};
  spec.cancel = &cancel;
  EXPECT_THROW(opc::run_flat_opc(chip, "top", spec), opc::FlowAborted);
  EXPECT_TRUE(output_polys(chip, spec).empty());
}

TEST(ServiceLibrary, ProgressEventsCoverEveryPhaseInOrder) {
  // Both flows announce gather → resolve → solve → merge once per context
  // pass (the merge watermark climbing to the pass's tile count), then the
  // MRC signoff, in exactly this order.
  using Event = std::tuple<std::string, int, std::size_t, std::size_t>;
  for (const bool flat : {true, false}) {
    Library chip = sparse_chip(2, 2);
    opc::FlowSpec spec = fast_flow();
    spec.mrc_deck = mrc::mask_deck_180();
    spec.mrc_action = mrc::Action::kWarn;
    std::vector<Event> events;
    spec.progress = [&](const opc::FlowProgress& p) {
      events.emplace_back(p.phase, p.pass, p.tiles_done, p.tiles_total);
    };
    (flat ? opc::run_flat_opc : opc::run_cell_opc)(chip, "top", spec);

    // Flat: four placements, two passes. Cell: the one leaf cell, once.
    const int passes = flat ? 2 : 1;
    const std::size_t tiles = flat ? 4 : 1;
    std::vector<Event> expected;
    for (int pass = 0; pass < passes; ++pass) {
      for (const char* phase : {"gather", "resolve", "solve", "merge"}) {
        expected.emplace_back(phase, pass, 0, tiles);
      }
      for (std::size_t done = 1; done <= tiles; ++done) {
        expected.emplace_back("merge", pass, done, tiles);
      }
    }
    expected.emplace_back("mrc", passes - 1, 0, tiles);
    EXPECT_EQ(events, expected) << (flat ? "flat" : "cell");
  }
}

TEST(ServiceLibrary, ProgressIsObservabilityOnly) {
  // Same run with and without a progress handler: identical output and
  // identical work accounting.
  Library with = sparse_chip();
  Library without = sparse_chip();
  opc::FlowSpec spec = fast_flow();
  const opc::FlowStats plain = opc::run_flat_opc(without, "top", spec);
  std::size_t events = 0;
  spec.progress = [&](const opc::FlowProgress&) { ++events; };
  const opc::FlowStats observed = opc::run_flat_opc(with, "top", spec);
  EXPECT_GT(events, 0u);
  EXPECT_EQ(plain.opc_runs, observed.opc_runs);
  EXPECT_EQ(output_polys(with, spec), output_polys(without, spec));
}

}  // namespace
}  // namespace opckit::svc

/// Shared check for the flow's cross-run reuse hooks: every hook reads or
/// writes correction-cache entries, so with FlowSpec::cache off each one
/// must be refused up front — in both flows, with a typed error that
/// names it, before any .ocs/.ocl file is created. Used by
/// FlowResume.StoreRequiresCache, FlowLibrary.LibraryRequiresCache and
/// ServiceLibrary.PreloadRequiresCache, which between them cover all six
/// hooks.
#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "core/flow.h"
#include "pattern/library.h"
#include "util/check.h"

namespace opckit::opc::testing_hooks {

/// Runs run_cell_opc and run_flat_opc on a fresh make_chip() layout
/// (top cell "top") with \p spec, the cache off and \p hook — one of
/// preload, store_path, record_sink, library_path, library, library_sink
/// — set, and expects each run to be refused as described above.
inline void expect_hook_requires_cache(
    const std::string& hook, FlowSpec spec,
    const std::function<layout::Library()>& make_chip) {
  const std::vector<store::TileRecord> shelf;
  const pat::PatternLibrary shared;
  const std::string base = ::testing::TempDir() + "/nocache_" + hook;
  const std::string ocs = base + ".ocs";
  const std::string ocl = base + ".ocl";
  std::filesystem::remove(ocs);
  std::filesystem::remove(ocl);

  spec.cache = false;
  if (hook == "preload") {
    spec.preload = &shelf;
  } else if (hook == "store_path") {
    spec.store_path = ocs;
  } else if (hook == "record_sink") {
    spec.record_sink = [](const store::TileRecord&) {};
  } else if (hook == "library_path") {
    spec.library_path = ocl;
  } else if (hook == "library") {
    spec.library = &shared;
  } else if (hook == "library_sink") {
    spec.library_sink = [](const pat::LibraryRecord&) {};
  } else {
    FAIL() << "unknown reuse hook " << hook;
  }

  for (const auto run : {run_cell_opc, run_flat_opc}) {
    layout::Library lib = make_chip();
    try {
      run(lib, "top", spec);
      ADD_FAILURE() << hook << " was accepted without the cache";
    } catch (const util::InputError& e) {
      EXPECT_NE(std::string(e.what()).find(hook), std::string::npos)
          << e.what();
    }
    EXPECT_FALSE(std::filesystem::exists(ocs)) << hook;
    EXPECT_FALSE(std::filesystem::exists(ocl)) << hook;
  }
}

}  // namespace opckit::opc::testing_hooks

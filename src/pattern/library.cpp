#include "pattern/library.h"

#include <algorithm>
#include <filesystem>

#include "pattern/canonical.h"

namespace opckit::pat {

PatternLibrary PatternLibrary::open(const std::string& path,
                                    std::uint64_t fingerprint,
                                    bool sync_on_append) {
  PatternLibrary lib;
  if (!std::filesystem::exists(path)) {
    // Fresh library: write the header now so a crash before the first
    // insert leaves a valid (empty) file.
    lib.writer_.emplace(
        store::ResultStore::create(path, fingerprint, sync_on_append));
    return lib;
  }
  store::LoadResult loaded = store::ResultStore::load(path, fingerprint);
  lib.load_info_ = {loaded.records.size(), loaded.tail_recovered};
  for (store::TileRecord& rec : loaded.records) {
    // Features and hashes are derived data, rebuilt from geometry and
    // never trusted from disk.
    const std::uint64_t wh = hash_rects(rec.window_rects);
    lib.add(std::move(rec), wh);
  }
  lib.writer_.emplace(store::ResultStore::append_to(path, loaded.valid_bytes,
                                                    sync_on_append));
  return lib;
}

void PatternLibrary::add(store::TileRecord rec, std::uint64_t window_hash) {
  const std::size_t idx = records_.size();
  features_.push_back(feature_of(rec.window_rects));
  const auto hkey = std::make_pair(window_hash, idx);
  by_hash_.insert(std::upper_bound(by_hash_.begin(), by_hash_.end(), hkey),
                  hkey);
  if (!rec.seeds.empty()) {
    const auto nkey = std::make_pair(features_.back().norm, idx);
    by_norm_.insert(std::upper_bound(by_norm_.begin(), by_norm_.end(), nkey),
                    nkey);
  }
  records_.push_back(std::move(rec));
}

bool PatternLibrary::insert(const store::TileRecord& rec) {
  const std::uint64_t wh = hash_rects(rec.window_rects);
  for (auto it = std::lower_bound(by_hash_.begin(), by_hash_.end(),
                                  std::make_pair(wh, std::size_t{0}));
       it != by_hash_.end() && it->first == wh; ++it) {
    if (store::same_tile(records_[it->second], rec)) return false;
  }
  add(rec, wh);
  if (writer_) writer_->append(rec);
  return true;
}

std::optional<NearMatch> PatternLibrary::nearest(const PatternFeature& query,
                                                 double budget) const {
  if (budget < 0.0 || by_norm_.empty()) return std::nullopt;
  // ||a|| - ||b|| <= ||a - b||: only entries whose norm lies within
  // `budget` of the query norm can possibly match — scan just that band.
  const auto lo = std::lower_bound(
      by_norm_.begin(), by_norm_.end(),
      std::make_pair(query.norm - budget, std::size_t{0}));
  std::optional<NearMatch> best;
  for (auto it = lo; it != by_norm_.end() && it->first <= query.norm + budget;
       ++it) {
    const double d = feature_distance(query, features_[it->second]);
    if (d > budget) continue;
    if (!best || d < best->distance ||
        (d == best->distance && it->second < best->index)) {
      best = NearMatch{it->second, d};
    }
  }
  return best;
}

PatternLibrary PatternLibrary::clone_memory() const {
  PatternLibrary copy;
  copy.records_ = records_;
  copy.features_ = features_;
  copy.by_norm_ = by_norm_;
  copy.by_hash_ = by_hash_;
  copy.load_info_ = load_info_;
  return copy;
}

}  // namespace opckit::pat

#include "service/library.h"

#include <filesystem>
#include <utility>

namespace opckit::svc {
namespace {

std::string fingerprint_hex(std::uint64_t fingerprint) {
  // Fixed-width lowercase hex: stable names, trivially greppable against
  // `opckit opc --stats` fingerprint output.
  static const char* kHex = "0123456789abcdef";
  std::string name(16, '0');
  for (int i = 15; i >= 0; --i) {
    name[static_cast<std::size_t>(i)] = kHex[fingerprint & 0xF];
    fingerprint >>= 4;
  }
  return name;
}

}  // namespace

std::string CorrectionLibrary::path_for(std::uint64_t fingerprint) const {
  if (opts_.dir.empty()) return {};
  return (std::filesystem::path(opts_.dir) /
          (fingerprint_hex(fingerprint) + ".ocs"))
      .string();
}

CorrectionLibrary::Shelf& CorrectionLibrary::shelf_locked(
    std::uint64_t fingerprint) {
  auto it = shelves_.find(fingerprint);
  if (it != shelves_.end()) return it->second;

  // Build the shelf before keeping it: a file the store refuses must fail
  // every job under this fingerprint, not leave behind an empty,
  // memory-only shelf that silently stops persisting.
  Shelf shelf;
  if (!opts_.dir.empty()) {
    std::filesystem::create_directories(opts_.dir);
    // Daemon restart / crash resume: adopt whatever the predecessor
    // persisted (torn tails recover per the store contract) and keep
    // appending after the last valid record — or start a fresh file.
    shelf.records = pat::PatternLibrary::open(path_for(fingerprint),
                                              fingerprint,
                                              opts_.sync_on_append);
    // The mirror is derived data: rebuilt here, never read back, and not
    // synced (the .ocs file is the durable copy).
    shelf.mirror.emplace(store::ResultStore::create(
        (std::filesystem::path(opts_.dir) /
         (fingerprint_hex(fingerprint) + ".ocl"))
            .string(),
        fingerprint));
    for (std::size_t i = 0; i < shelf.records.size(); ++i) {
      if (!shelf.records.record(i).seeds.empty())
        shelf.mirror->append(shelf.records.record(i));
    }
  }
  return shelves_.emplace(fingerprint, std::move(shelf)).first->second;
}

pat::PatternLibrary CorrectionLibrary::snapshot(std::uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mutex_);
  return shelf_locked(fingerprint).records.clone_memory();
}

void CorrectionLibrary::add(std::uint64_t fingerprint,
                            const store::TileRecord& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  Shelf& shelf = shelf_locked(fingerprint);
  if (shelf.records.insert(record) && shelf.mirror && !record.seeds.empty())
    shelf.mirror->append(record);
}

std::size_t CorrectionLibrary::size(std::uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mutex_);
  return shelf_locked(fingerprint).records.size();
}

}  // namespace opckit::svc

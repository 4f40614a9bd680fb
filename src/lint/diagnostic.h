/// \file diagnostic.h
/// Diagnostics produced by the opclint static analyzer.
///
/// Every finding carries a *stable* code (e.g. "LAY001") so downstream
/// tooling can filter, waive, and track findings across runs — the same
/// contract DRC decks honour with rule names. Codes are grouped by
/// domain:
///
///   LAYnnn  polygon well-formedness
///   HIEnnn  cell-hierarchy / library structure
///   GDSnnn  GDSII structural limits
///   RULnnn  rule-deck (rule-OPC recipe) sanity
///   MODnnn  imaging/OPC model-parameter bands
///   STOnnn  record-file integrity, .ocs and .ocl (src/store)
///   MRCnnn  mask-rule signoff (scanline MRC engine, src/mrc)
///
/// The full registry (code, default severity, one-line title) is
/// compiled into the library and queryable at runtime, which keeps the
/// CLI listing, the documentation, and the tests from drifting apart.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "geometry/rect.h"
#include "layout/layer.h"

namespace opckit::lint {

/// Finding severity. Only kError findings block a flow; warnings and
/// notes are advisory.
enum class Severity { kNote, kWarning, kError };

/// Printable name ("error", "warning", "note").
const char* to_string(Severity s);

/// One static-analysis finding.
struct Diagnostic {
  std::string code;          ///< stable registry code, e.g. "RUL003"
  Severity severity = Severity::kError;
  std::string message;       ///< human-readable detail
  std::string cell;          ///< owning cell name ("" if not cell-scoped)
  layout::Layer layer;       ///< meaningful only when has_layer
  bool has_layer = false;
  geom::Rect where = geom::Rect::empty();  ///< location (empty if N/A)

  /// "CODE severity [cell/layer/bbox] message" single-line rendering.
  std::string to_line() const;
};

/// Registry entry describing one diagnostic code.
struct CodeInfo {
  const char* code;
  Severity default_severity;
  const char* title;   ///< one-line description for listings/docs
  const char* remedy;  ///< one-line fix guidance for listings/docs
};

/// All registered codes, grouped by domain, stable order.
std::span<const CodeInfo> all_codes();

/// Human-readable name of a code's domain group ("LAY001" -> "Polygon
/// well-formedness"); nullptr for an unknown prefix.
const char* domain_title(std::string_view code);

/// Look up a code; nullptr if unknown.
const CodeInfo* find_code(std::string_view code);

/// An ordered collection of findings plus severity accounting.
class LintReport {
 public:
  /// Append a finding. The code must exist in the registry
  /// (OPCKIT_CHECK'd so new checks cannot forget to register).
  void add(Diagnostic d);

  /// Append a registry-coded finding with the code's default severity.
  void add(std::string_view code, std::string message,
           std::string cell = "", geom::Rect where = geom::Rect::empty());

  /// Move all findings of \p other into this report.
  void merge(LintReport&& other);

  const std::vector<Diagnostic>& findings() const { return findings_; }
  std::size_t count(Severity s) const;
  std::size_t errors() const { return count(Severity::kError); }
  std::size_t warnings() const { return count(Severity::kWarning); }
  bool empty() const { return findings_.empty(); }
  /// True when no error-severity findings are present.
  bool clean() const { return errors() == 0; }

  /// Distinct codes present, ascending.
  std::vector<std::string> codes() const;

 private:
  std::vector<Diagnostic> findings_;
};

/// Aligned-text rendering (via util::Table) with a one-line summary.
std::string render_text(const LintReport& report,
                        const std::string& title = "opckit lint");

/// Machine-readable CSV (code,severity,cell,layer,bbox,message).
std::string render_csv(const LintReport& report);

/// Markdown rendering of the full code registry, one table per domain —
/// the source of truth for docs/LINT_CODES.md. `opckit lint --codes
/// --format md` prints exactly this string, and tools/ci.sh regenerates
/// the doc and fails on drift, so registry and documentation cannot
/// diverge.
std::string render_codes_markdown();

}  // namespace opckit::lint

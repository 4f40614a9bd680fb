#include "core/flow_codec.h"

#include <string>

#include "util/bytes.h"
#include "util/check.h"

namespace opckit::opc {
namespace {

// Version 2 appends the pattern-library knobs (library_path,
// library_budget) after the MRC action — both reach flow_fingerprint(),
// so a spec that crosses the wire must round-trip them.
// Version 3 appends the correction-engine selection and the pixel-ILT
// knobs (engine, ilt_escalation_epe_nm, the IltSpec) after the library
// budget — all fingerprint-mixed, so same rule.
// Version 4 drops library_path: it left the fingerprint and, like
// store_path, names a file on the submitting host.
constexpr std::uint16_t kCodecVersion = 4;
/// A deck entry name is a short rule label; anything huge is corruption.
constexpr std::uint32_t kMaxNameBytes = 4096;
constexpr std::uint32_t kMaxDeckChecks = 100000;

[[noreturn]] void malformed(const std::string& what) {
  throw util::InputError("flow spec codec: " + what);
}

int read_int(util::ByteReader& r) {
  const std::int64_t v = r.i64();
  if (v < INT32_MIN || v > INT32_MAX) malformed("int field out of range");
  return static_cast<int>(v);
}

/// Range-checked enum decode: values in [0, count) only.
template <typename E>
E read_enum(util::ByteReader& r, std::uint8_t count, const char* what) {
  const std::uint8_t v = r.u8();
  if (v >= count) malformed(std::string("bad ") + what + " enum value");
  return static_cast<E>(v);
}

bool read_bool(util::ByteReader& r) {
  const std::uint8_t v = r.u8();
  if (v > 1) malformed("bad boolean value");
  return v == 1;
}

}  // namespace

std::vector<std::uint8_t> encode_flow_spec(const FlowSpec& spec) {
  std::vector<std::uint8_t> out;
  util::ByteWriter w(out);
  w.u16(kCodecVersion);

  const ModelOpcSpec& o = spec.opc;
  w.i64(o.fragmentation.target_length);
  w.i64(o.fragmentation.corner_length);
  w.i64(o.fragmentation.min_length);
  w.i64(o.fragmentation.line_end_max);
  w.i64(o.max_iterations);
  w.f64(o.gain);
  w.i64(o.max_move_per_iter);
  w.i64(o.max_total_offset);
  w.f64(o.epe_tolerance_nm);
  w.f64(o.probe_range_nm);
  w.i64(o.grid_nm);
  w.i64(o.min_mask_space_nm);
  w.i64(o.min_tip_gap_nm);
  w.f64(o.corner_gain_scale);
  w.i64(o.corner_max_offset);

  const litho::SimSpec& s = spec.sim;
  w.f64(s.optics.wavelength_nm);
  w.f64(s.optics.na);
  w.u8(static_cast<std::uint8_t>(s.optics.source.shape));
  w.f64(s.optics.source.sigma_outer);
  w.f64(s.optics.source.sigma_inner);
  w.f64(s.optics.source.pole_center);
  w.f64(s.optics.source.pole_radius);
  w.i64(s.optics.source.grid);
  w.f64(s.optics.aberrations.coma_x_nm);
  w.f64(s.optics.aberrations.coma_y_nm);
  w.f64(s.optics.aberrations.astig_nm);
  w.u8(static_cast<std::uint8_t>(s.mask.type));
  w.f64(s.mask.background_transmission);
  w.f64(s.resist.threshold);
  w.f64(s.resist.diffusion_nm);
  w.f64(s.pixel_nm);
  w.i64(s.guard_nm);
  w.u8(static_cast<std::uint8_t>(s.imaging));
  w.f64(s.socs_epsilon);

  w.i64(spec.halo_nm);
  w.u16(spec.input_layer.layer);
  w.u16(spec.input_layer.datatype);
  w.u16(spec.output_layer.layer);
  w.u16(spec.output_layer.datatype);
  w.i64(spec.flat_context_passes);
  w.u8(spec.preflight ? 1 : 0);
  w.i64(spec.jobs);
  w.u8(spec.cache ? 1 : 0);
  w.u8(spec.cache_symmetry ? 1 : 0);

  w.u32(static_cast<std::uint32_t>(spec.mrc_deck.size()));
  for (const mrc::Check& c : spec.mrc_deck) {
    w.u8(static_cast<std::uint8_t>(c.kind));
    w.i64(c.value);
    w.str(c.name);
  }
  w.u8(static_cast<std::uint8_t>(spec.mrc_action));

  w.f64(spec.library_budget);

  w.u8(static_cast<std::uint8_t>(spec.engine));
  w.f64(spec.ilt_escalation_epe_nm);
  const ilt::IltSpec& il = spec.ilt;
  w.i64(il.max_iterations);
  w.f64(il.step);
  w.f64(il.sigmoid_steepness);
  w.f64(il.edge_weight);
  w.f64(il.edge_band_nm);
  w.f64(il.convergence_tol);
  w.f64(il.mask_threshold);
  w.i64(il.min_width_nm);
  w.i64(il.min_space_nm);
  w.i64(il.min_corner_nm);
  w.f64(il.min_area_nm2);
  return out;
}

FlowSpec decode_flow_spec(const std::uint8_t* data, std::size_t size) {
  util::ByteReader r(data, size, malformed);
  const std::uint16_t version = r.u16();
  if (version != kCodecVersion)
    malformed("spec version " + std::to_string(version) +
              "; this build reads version " + std::to_string(kCodecVersion));

  FlowSpec spec;
  ModelOpcSpec& o = spec.opc;
  o.fragmentation.target_length = r.i64();
  o.fragmentation.corner_length = r.i64();
  o.fragmentation.min_length = r.i64();
  o.fragmentation.line_end_max = r.i64();
  o.max_iterations = read_int(r);
  o.gain = r.f64();
  o.max_move_per_iter = r.i64();
  o.max_total_offset = r.i64();
  o.epe_tolerance_nm = r.f64();
  o.probe_range_nm = r.f64();
  o.grid_nm = r.i64();
  o.min_mask_space_nm = r.i64();
  o.min_tip_gap_nm = r.i64();
  o.corner_gain_scale = r.f64();
  o.corner_max_offset = r.i64();

  litho::SimSpec& s = spec.sim;
  s.optics.wavelength_nm = r.f64();
  s.optics.na = r.f64();
  s.optics.source.shape = read_enum<litho::SourceShape>(r, 4, "source shape");
  s.optics.source.sigma_outer = r.f64();
  s.optics.source.sigma_inner = r.f64();
  s.optics.source.pole_center = r.f64();
  s.optics.source.pole_radius = r.f64();
  s.optics.source.grid = read_int(r);
  s.optics.aberrations.coma_x_nm = r.f64();
  s.optics.aberrations.coma_y_nm = r.f64();
  s.optics.aberrations.astig_nm = r.f64();
  s.mask.type = read_enum<litho::MaskType>(r, 2, "mask type");
  s.mask.background_transmission = r.f64();
  s.resist.threshold = r.f64();
  s.resist.diffusion_nm = r.f64();
  s.pixel_nm = r.f64();
  s.guard_nm = r.i64();
  s.imaging = read_enum<litho::ImagingMode>(r, 2, "imaging mode");
  s.socs_epsilon = r.f64();

  spec.halo_nm = r.i64();
  spec.input_layer.layer = r.u16();
  spec.input_layer.datatype = r.u16();
  spec.output_layer.layer = r.u16();
  spec.output_layer.datatype = r.u16();
  spec.flat_context_passes = read_int(r);
  spec.preflight = read_bool(r);
  spec.jobs = read_int(r);
  spec.cache = read_bool(r);
  spec.cache_symmetry = read_bool(r);

  const std::uint32_t n_checks = r.u32();
  if (n_checks > kMaxDeckChecks) malformed("MRC deck count exceeds the limit");
  // Each check costs at least kind + value + name length = 13 bytes;
  // pre-check so a corrupt count cannot allocate unboundedly.
  r.need(static_cast<std::uint64_t>(n_checks) * 13, "MRC deck");
  spec.mrc_deck.reserve(n_checks);
  for (std::uint32_t i = 0; i < n_checks; ++i) {
    mrc::Check c;
    c.kind = read_enum<mrc::CheckKind>(r, 7, "MRC check kind");
    c.value = r.i64();
    c.name = r.str(kMaxNameBytes);
    spec.mrc_deck.push_back(std::move(c));
  }
  spec.mrc_action = read_enum<mrc::Action>(r, 2, "MRC action");

  spec.library_budget = r.f64();
  if (!(spec.library_budget >= 0.0))
    malformed("negative or NaN library budget");

  spec.engine = read_enum<CorrectionEngine>(r, 3, "correction engine");
  spec.ilt_escalation_epe_nm = r.f64();
  if (!(spec.ilt_escalation_epe_nm >= 0.0))
    malformed("negative or NaN ILT escalation threshold");
  ilt::IltSpec& il = spec.ilt;
  il.max_iterations = read_int(r);
  il.step = r.f64();
  il.sigmoid_steepness = r.f64();
  il.edge_weight = r.f64();
  il.edge_band_nm = r.f64();
  il.convergence_tol = r.f64();
  il.mask_threshold = r.f64();
  il.min_width_nm = r.i64();
  il.min_space_nm = r.i64();
  il.min_corner_nm = r.i64();
  il.min_area_nm2 = r.f64();
  if (il.max_iterations < 1 || !(il.step > 0.0) ||
      !(il.sigmoid_steepness > 0.0) || !(il.edge_weight >= 0.0) ||
      !(il.edge_band_nm >= 0.0) || !(il.convergence_tol >= 0.0) ||
      !(il.mask_threshold > 0.0 && il.mask_threshold < 1.0) ||
      il.min_width_nm <= 0 || il.min_space_nm <= 0 ||
      il.min_corner_nm <= 0 || !(il.min_area_nm2 >= 0.0))
    malformed("invalid pixel-ILT knobs");

  r.finish();
  return spec;
}

}  // namespace opckit::opc

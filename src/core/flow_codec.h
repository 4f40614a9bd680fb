/// \file flow_codec.h
/// Versioned binary serialization of FlowSpec — the job descriptor the
/// service daemon (src/service/) ships over its wire protocol.
///
/// The codec covers every knob that reaches flow_fingerprint() (optical
/// model, resist, mask stack, OPC recipe, fragmentation, halo, layers,
/// pass count, symmetry policy, library_budget, correction engine) plus
/// the execution knobs a client may reasonably set per job (jobs, cache,
/// preflight, MRC deck/action, flat_context_passes). It deliberately
/// EXCLUDES host-local state — store_path/resume/library_path,
/// fail_after_tiles, and the service hooks
/// (library/record_sink/cancel/progress) — because those describe the
/// executing process, not the job, and the daemon owns them.
///
/// Layout (version 4, little-endian; v4 dropped library_path): u16
/// version, then the fields in a fixed order; doubles as IEEE-754 bit
/// patterns, enums as range-checked u8, the MRC deck as a counted list of
/// {kind, value, name}. Decoding is bounds-checked end to end
/// (util::ByteReader): corrupt counts or truncated buffers throw
/// util::InputError before anything out-of-range is read or allocated,
/// and trailing bytes are an error.
///
/// The correctness contract, asserted by service_protocol_test: for any
/// spec,  flow_fingerprint(decode(encode(spec))) == flow_fingerprint
/// (spec)  and re-encoding the decoded spec reproduces the bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/flow.h"

namespace opckit::opc {

/// Serialize \p spec's job-describing fields (see file comment).
std::vector<std::uint8_t> encode_flow_spec(const FlowSpec& spec);

/// Parse an encoded spec. Throws util::InputError on any malformation:
/// unknown version, out-of-range enum, truncated buffer, trailing bytes.
FlowSpec decode_flow_spec(const std::uint8_t* data, std::size_t size);

}  // namespace opckit::opc

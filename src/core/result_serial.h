// Bit-exact (de)serialisation of Optimize_result — the persistable form of
// a memo-table entry.
//
// The Optimization_service memo table caches whole Optimize_results, and
// warm-start persistence (serve/state_store.h) is a save/load of that
// table: a result written here, restarted, and read back must be
// bit-identical to the original — graph representation, float bit
// patterns, metadata and all — so a repeated request after restart gets
// exactly the answer it would have gotten before. Graphs use the binary
// graph form (ir/graph_io.h); doubles travel as bit patterns.
//
// The layout is one field list, `fields` below (support/record_file.h
// explains the form), which both writes and reads; it is guarded by a
// static_assert on aggregate_field_count<Optimize_result>, so adding a
// field to the struct without adding it to the list is a compile error,
// not silent data loss on the next restart. The wire protocol embeds the
// same list in poll_ok.
//
// The progress callback is the one part of a *request* that can't
// persist; results carry no callables, so every field serialises.
#pragma once

#include <string>
#include <string_view>

#include "core/optimizer_api.h"
#include "support/record_file.h"

namespace xrl {

/// The field list, instantiated for Byte_writer (const result) and
/// Byte_reader. Reading throws std::runtime_error on malformed or
/// truncated input (the state store catches, counts, and skips the
/// record).
template <class Io, Record_of<Optimize_result> T>
void fields(Io& io, T& result);

/// Whole-payload conveniences; result_from_bytes rejects trailing bytes.
std::string result_to_bytes(const Optimize_result& result);
Optimize_result result_from_bytes(std::string_view bytes);

} // namespace xrl

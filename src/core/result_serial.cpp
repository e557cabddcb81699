#include "core/result_serial.h"

#include <stdexcept>

#include "ir/graph_io.h"
#include "support/reflect.h"

namespace xrl {

namespace {

constexpr std::uint32_t result_serial_version = 1;

static_assert(aggregate_field_count<Optimize_result> == 11,
              "Optimize_result grew a field the serialiser does not cover: update its field "
              "list fields(Io&, Optimize_result&) in core/result_serial.cpp, bump "
              "result_serial_version if the layout changed, and then this count");

} // namespace

template <class Io, Record_of<Optimize_result> T>
void fields(Io& io, T& result)
{
    io.version(result_serial_version, "result serial");
    fields(io, result.best_graph);
    io.str(result.backend);
    io.str(result.device);
    io.f64(result.initial_ms);
    io.f64(result.final_ms);
    io.i32(result.steps);
    io.f64(result.wall_seconds);
    io.flag(result.cancelled);
    io.flag(result.from_cache);
    io.map(result.rule_counts);
    io.map(result.metadata);
}

template void fields(Byte_writer&, const Optimize_result&);
template void fields(Byte_reader&, Optimize_result&);

std::string result_to_bytes(const Optimize_result& result)
{
    Byte_writer out;
    fields(out, result);
    return out.take();
}

Optimize_result result_from_bytes(std::string_view bytes)
{
    Byte_reader in(bytes);
    Optimize_result result;
    fields(in, result);
    if (!in.at_end())
        throw std::runtime_error("result serial: trailing bytes after result");
    return result;
}

} // namespace xrl

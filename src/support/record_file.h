// Versioned, checksummed, crash-safe record files — the on-disk format
// behind the serving layer's warm-start state (serve/state_store.h).
//
// A record file is a header (magic + format version) followed by a flat
// sequence of records. Every record is length-framed, carries its own
// format version and a timestamp, and is protected by a per-record FNV-1a
// checksum, so a reader can:
//
//   * skip a corrupt record (flipped byte, truncated tail) and keep
//     loading the rest,
//   * skip a record written by a *future* format version without having to
//     understand its body (the length frame walks over it),
//   * refuse a whole file from a future header version,
//
// all without throwing — damage is reported through Record_load_report
// counters, never as a crash, because warm-start state is an optimisation
// and a cold start must always remain available.
//
// Writes are atomic: the new contents go to `<path>.tmp` which is then
// renamed over `path`, so a writer dying mid-snapshot leaves the previous
// snapshot intact (the stale temp file is ignored by readers and replaced
// by the next successful write). Byte order is the host's: this is
// same-machine persistence (a server restarting), not a wire format.
//
// The first half of this header is the byte composition every binary
// layout shares — record payloads here, the wire protocol's PDUs — as
// field-list verbs on Byte_writer / Byte_reader.
#pragma once

#include <concepts>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace xrl {

// ---------------------------------------------------------------------------
// Byte composition: field lists
// ---------------------------------------------------------------------------
//
// Every binary record (wire PDUs in net/protocol.cpp, Optimize_result in
// core/result_serial.cpp, graph parameters in ir/graph_io.cpp) states its
// layout once, as a field list both directions run:
//
//   template <class Io, Record_of<Poll_ok> T>
//   void fields(Io& io, T& ok)
//   {
//       io.u64(ok.job_id);
//       io.enumerated(ok.state, Job_state::queued, Job_state::failed, "job state");
//       io.optional(ok.progress);
//   }
//
// Io is Byte_writer (T = const Poll_ok) or Byte_reader (T = Poll_ok); the
// two classes share one set of verbs taking references, so the list is
// the encoder and the decoder. Element types of optional/list/map are
// composed by wire_item(): strings, fixed-width scalars, pairs, nested
// lists, and any record with its own `fields` overload — found by ADL, so
// field lists live in namespace xrl itself, not in an anonymous namespace.

/// Binds a field list's `T` to `Record` read-write or `const Record`.
template <class T, class Record>
concept Record_of = std::same_as<std::remove_const_t<T>, Record>;

template <class Io, class T>
void wire_item(Io& io, T& value);

/// Appends fixed-width scalars and length-prefixed strings to a byte
/// string. Floating-point values are written by bit pattern, so payloads
/// round-trip bit-exactly (the warm-start parity guarantee rides on this).
class Byte_writer {
public:
    void u8(std::uint8_t value) { put(value); }
    void u32(std::uint32_t value) { put(value); }
    void u64(std::uint64_t value) { put(value); }
    void i32(std::int32_t value) { put(value); }
    void i64(std::int64_t value) { put(value); }
    void f32(float value) { put(value); }
    void f64(double value) { put(value); }
    void str(std::string_view value); ///< u64 length + raw bytes.

    void flag(bool value) { u8(value ? 1 : 0); }

    /// Written as the enum's underlying type; the range is the reader's.
    template <class Enum>
    void enumerated(Enum value, Enum /*first*/, Enum /*last*/, const char* /*what*/)
    {
        put(static_cast<std::underlying_type_t<Enum>>(value));
    }

    /// A u32 format tag the reader checks for equality.
    void version(std::uint32_t current, const char* /*what*/) { u32(current); }

    /// u8 presence flag, then the value iff present.
    template <class T>
    void optional(const std::optional<T>& value)
    {
        flag(value.has_value());
        if (value.has_value()) wire_item(*this, *value);
    }

    /// u32 count, then the elements back to back.
    template <class Range>
    void list(const Range& values)
    {
        u32(static_cast<std::uint32_t>(values.size()));
        for (const auto& value : values) wire_item(*this, value);
    }

    /// u32 count, then (str key, value) pairs in key order.
    template <class V>
    void map(const std::map<std::string, V>& values)
    {
        u32(static_cast<std::uint32_t>(values.size()));
        for (const auto& [key, value] : values) {
            str(key);
            wire_item(*this, value);
        }
    }

    const std::string& bytes() const { return out_; }
    std::string take() { return std::move(out_); }

private:
    template <class T>
    void put(T value)
    {
        char buffer[sizeof(T)];
        std::memcpy(buffer, &value, sizeof(T));
        out_.append(buffer, sizeof(T));
    }

    std::string out_;
};

/// Encoded size of a default-constructed `T` — the smallest any `T` can
/// be on the wire (empty strings and lists, absent optionals), and so the
/// per-item minimum Byte_reader checks a count against.
template <class T>
std::size_t min_wire_size()
{
    static const std::size_t size = [] {
        Byte_writer out;
        const T value{};
        wire_item(out, value);
        return out.bytes().size();
    }();
    return size;
}

/// Bounds-checked reader over a byte string. Any read past the end throws
/// std::runtime_error — deserialisers fail loudly and their callers (the
/// state store, the wire decoder) catch and type the failure.
class Byte_reader {
public:
    /// `slot_budget` caps the graph slots decoding may allocate (see
    /// charge_slots); the default is unbounded.
    explicit Byte_reader(std::string_view bytes,
                         std::uint64_t slot_budget = std::numeric_limits<std::uint64_t>::max())
        : bytes_(bytes), slots_left_(slot_budget)
    {
    }

    std::uint8_t u8() { return get<std::uint8_t>(); }
    std::uint32_t u32() { return get<std::uint32_t>(); }
    std::uint64_t u64() { return get<std::uint64_t>(); }
    std::int32_t i32() { return get<std::int32_t>(); }
    std::int64_t i64() { return get<std::int64_t>(); }
    float f32() { return get<float>(); }
    double f64() { return get<double>(); }
    std::string str();
    std::string raw(std::size_t size); ///< Exactly `size` unframed bytes.

    // Field-list verbs: Byte_writer's, read into a reference.
    void u8(std::uint8_t& value) { value = u8(); }
    void u32(std::uint32_t& value) { value = u32(); }
    void u64(std::uint64_t& value) { value = u64(); }
    void i32(std::int32_t& value) { value = i32(); }
    void i64(std::int64_t& value) { value = i64(); }
    void f32(float& value) { value = f32(); }
    void f64(double& value) { value = f64(); }
    void str(std::string& value) { value = str(); }

    void flag(bool& value) { value = u8() != 0; }

    /// Throws "unknown <what> <n>" unless first <= n <= last.
    template <class Enum>
    void enumerated(Enum& value, Enum first, Enum last, const char* what)
    {
        using Wire = std::underlying_type_t<Enum>;
        const Wire raw = get<Wire>();
        if (raw < static_cast<Wire>(first) || raw > static_cast<Wire>(last))
            throw std::runtime_error(std::string("unknown ") + what + " " +
                                     std::to_string(static_cast<std::uint64_t>(raw)));
        value = static_cast<Enum>(raw);
    }

    /// Throws "<what>: unsupported version <n>" unless the tag is `current`.
    void version(std::uint32_t current, const char* what);

    template <class T>
    void optional(std::optional<T>& value)
    {
        value.reset();
        if (u8() != 0) wire_item(*this, value.emplace());
    }

    template <class T>
    void list(std::vector<T>& values)
    {
        const std::uint32_t count = u32();
        expect_items(count, min_wire_size<T>());
        values.clear();
        values.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) wire_item(*this, values.emplace_back());
    }

    template <class V>
    void map(std::map<std::string, V>& values)
    {
        const std::uint32_t count = u32();
        expect_items(count, min_wire_size<std::string>() + min_wire_size<V>());
        values.clear();
        for (std::uint32_t i = 0; i < count; ++i) {
            std::string key = str();
            V value{};
            wire_item(*this, value);
            values[std::move(key)] = std::move(value);
        }
    }

    /// Guard a just-read element count against a corrupt length field:
    /// throws unless `count` items of at least `min_bytes_each` could still
    /// fit in the remaining input (stops giant bogus reserves before they
    /// allocate).
    void expect_items(std::uint64_t count, std::size_t min_bytes_each) const;

    /// Charge `count` graph slots against the budget before allocating
    /// them; throws once the budget is spent. A tombstone slot costs one
    /// input byte but a whole Node in memory, so expect_items alone lets a
    /// small input demand a huge allocation.
    void charge_slots(std::uint64_t count);

    bool at_end() const { return pos_ == bytes_.size(); }
    std::size_t remaining() const { return bytes_.size() - pos_; }

private:
    void take(void* destination, std::size_t size);

    template <class T>
    T get()
    {
        T value{};
        take(&value, sizeof(T));
        return value;
    }

    std::string_view bytes_;
    std::size_t pos_ = 0;
    std::uint64_t slots_left_;
};

template <class T>
struct Is_std_vector : std::false_type {};
template <class T>
struct Is_std_vector<std::vector<T>> : std::true_type {};

/// One element of an optional, list or map, in either direction.
template <class Io, class T>
void wire_item(Io& io, T& value)
{
    using V = std::remove_const_t<T>;
    if constexpr (std::is_same_v<V, std::string>) io.str(value);
    else if constexpr (std::is_same_v<V, std::uint64_t>) io.u64(value);
    else if constexpr (std::is_same_v<V, std::int64_t>) io.i64(value);
    else if constexpr (std::is_same_v<V, std::int32_t>) io.i32(value);
    else if constexpr (std::is_same_v<V, double>) io.f64(value);
    else if constexpr (Is_std_vector<V>::value) io.list(value);
    else if constexpr (requires { value.first; value.second; }) {
        wire_item(io, value.first);
        wire_item(io, value.second);
    } else {
        fields(io, value); // the record's own field list, found by ADL
    }
}

// ---------------------------------------------------------------------------
// The record file
// ---------------------------------------------------------------------------

/// Format version written to new files and records; readers accept
/// anything up to it and skip-count anything beyond it.
inline constexpr std::uint32_t record_file_version = 1;

struct Record {
    /// Per-record format version. Defaults to current; tests (and future
    /// writers) can stamp records with a newer version to exercise the
    /// reader's skip path.
    std::uint32_t version = record_file_version;

    /// Caller-defined timestamp in seconds since the Unix epoch; the state
    /// store uses it for age-based eviction.
    double stamp = 0.0;

    std::string key;
    std::string payload; ///< Opaque bytes; the reader never interprets them.
};

/// What a read found, damage included. Counters are additive across the
/// file; a clean load has everything but `loaded` at zero/false.
struct Record_load_report {
    bool file_missing = false;            ///< No file at `path` (a cold start).
    bool header_version_mismatch = false; ///< Future header: whole file skipped.
    std::size_t loaded = 0;
    std::size_t skipped_corrupt = 0; ///< Bad checksum, bad frame, or truncation.
    std::size_t skipped_version = 0; ///< Record from a future format version.
};

/// Atomically replace `path` with the given records: writes `<path>.tmp`
/// and renames it over `path` (creating parent directories on demand).
/// Throws std::runtime_error when the filesystem refuses — persistence
/// failures are loud, load failures are soft.
void write_record_file(const std::string& path, const std::vector<Record>& records);

/// Load every intact record from `path`. Never throws on file *content* —
/// corrupt or future-versioned records are skipped and counted in
/// `report` (optional) — and a missing file is an empty result, not an
/// error.
std::vector<Record> read_record_file(const std::string& path,
                                     Record_load_report* report = nullptr);

} // namespace xrl

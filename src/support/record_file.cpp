#include "support/record_file.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "support/fnv.h"

namespace xrl {

// ---------------------------------------------------------------------------
// Byte_writer / Byte_reader
// ---------------------------------------------------------------------------

void Byte_writer::str(std::string_view value)
{
    u64(value.size());
    out_.append(value.data(), value.size());
}

void Byte_reader::take(void* destination, std::size_t size)
{
    if (size > bytes_.size() - pos_)
        throw std::runtime_error("Byte_reader: truncated input (wanted " + std::to_string(size) +
                                 " bytes, " + std::to_string(bytes_.size() - pos_) + " left)");
    std::memcpy(destination, bytes_.data() + pos_, size);
    pos_ += size;
}

std::string Byte_reader::str()
{
    const std::uint64_t size = u64();
    expect_items(size, 1);
    return raw(static_cast<std::size_t>(size));
}

std::string Byte_reader::raw(std::size_t size)
{
    std::string value(size, '\0');
    take(value.data(), value.size());
    return value;
}

void Byte_reader::version(std::uint32_t current, const char* what)
{
    const std::uint32_t tag = u32();
    if (tag != current)
        throw std::runtime_error(std::string(what) + ": unsupported version " + std::to_string(tag));
}

void Byte_reader::charge_slots(std::uint64_t count)
{
    if (count > slots_left_)
        throw std::runtime_error("graph of " + std::to_string(count) +
                                 " slots exceeds the remaining slot budget of " +
                                 std::to_string(slots_left_));
    slots_left_ -= count;
}

void Byte_reader::expect_items(std::uint64_t count, std::size_t min_bytes_each) const
{
    const std::size_t left = bytes_.size() - pos_;
    if (min_bytes_each == 0) min_bytes_each = 1;
    if (count > left / min_bytes_each)
        throw std::runtime_error("Byte_reader: corrupt count " + std::to_string(count) +
                                 " exceeds remaining input (" + std::to_string(left) + " bytes)");
}

// ---------------------------------------------------------------------------
// Record file
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t record_file_magic = 0x534c5258U; // "XRLS"

std::string encode_body(const Record& record)
{
    Byte_writer body;
    body.u32(record.version);
    body.f64(record.stamp);
    body.str(record.key);
    body.str(record.payload);
    return body.take();
}

std::uint64_t body_checksum(std::string_view body)
{
    return fnv1a_bytes(fnv1a_offset, body);
}

} // namespace

void write_record_file(const std::string& path, const std::vector<Record>& records)
{
    namespace fs = std::filesystem;
    const fs::path target(path);
    std::error_code ec;
    if (target.has_parent_path()) {
        fs::create_directories(target.parent_path(), ec);
        if (ec)
            throw std::runtime_error("write_record_file: cannot create directory '" +
                                     target.parent_path().string() + "': " + ec.message());
    }

    // Single temp name per target: within a process the state store's lock
    // serialises writers; a concurrent writer from *another* process can at
    // worst race this one into a garbled temp, which the rename then
    // installs — and the per-record checksums downgrade that to skipped
    // records on the next load rather than a poisoned server.
    const std::string temp_path = path + ".tmp";
    {
        std::ofstream os(temp_path, std::ios::binary | std::ios::trunc);
        if (!os.good())
            throw std::runtime_error("write_record_file: cannot open '" + temp_path +
                                     "' for writing");
        Byte_writer header;
        header.u32(record_file_magic);
        header.u32(record_file_version);
        os.write(header.bytes().data(), static_cast<std::streamsize>(header.bytes().size()));
        for (const Record& record : records) {
            const std::string body = encode_body(record);
            Byte_writer frame;
            frame.u64(body.size());
            os.write(frame.bytes().data(), static_cast<std::streamsize>(frame.bytes().size()));
            os.write(body.data(), static_cast<std::streamsize>(body.size()));
            Byte_writer checksum;
            checksum.u64(body_checksum(body));
            os.write(checksum.bytes().data(),
                     static_cast<std::streamsize>(checksum.bytes().size()));
        }
        os.flush();
        if (!os.good()) {
            os.close();
            fs::remove(temp_path, ec);
            throw std::runtime_error("write_record_file: write to '" + temp_path + "' failed");
        }
    }
    fs::rename(temp_path, target, ec);
    if (ec) {
        fs::remove(temp_path, ec);
        throw std::runtime_error("write_record_file: rename to '" + path +
                                 "' failed: " + ec.message());
    }
}

std::vector<Record> read_record_file(const std::string& path, Record_load_report* report)
{
    Record_load_report local;
    Record_load_report& out = report != nullptr ? *report : local;
    out = Record_load_report{};

    std::vector<Record> records;
    std::ifstream is(path, std::ios::binary);
    if (!is.good()) {
        out.file_missing = true;
        return records;
    }
    std::string contents((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());

    Byte_reader reader(contents);
    try {
        if (reader.u32() != record_file_magic) {
            ++out.skipped_corrupt; // not a record file at all
            return records;
        }
        if (reader.u32() > record_file_version) {
            out.header_version_mismatch = true; // a future writer owns this file
            return records;
        }
    } catch (const std::runtime_error&) {
        ++out.skipped_corrupt; // shorter than a header
        return records;
    }

    while (!reader.at_end()) {
        std::string body;
        std::uint64_t checksum = 0;
        try {
            const std::uint64_t body_size = reader.u64();
            reader.expect_items(body_size, 1);
            body = reader.raw(static_cast<std::size_t>(body_size));
            checksum = reader.u64();
        } catch (const std::runtime_error&) {
            ++out.skipped_corrupt; // truncated tail: nothing after it is framed
            break;
        }
        if (body_checksum(body) != checksum) {
            ++out.skipped_corrupt; // flipped byte; the frame still walks on
            continue;
        }
        try {
            Byte_reader body_reader(body);
            Record record;
            record.version = body_reader.u32();
            if (record.version > record_file_version) {
                ++out.skipped_version;
                continue;
            }
            record.stamp = body_reader.f64();
            record.key = body_reader.str();
            record.payload = body_reader.str();
            records.push_back(std::move(record));
            ++out.loaded;
        } catch (const std::runtime_error&) {
            ++out.skipped_corrupt; // checksum-valid but malformed body
        }
    }
    return records;
}

} // namespace xrl

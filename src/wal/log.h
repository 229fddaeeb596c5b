// WAL record framing: length- and CRC-guarded records, tolerant of a torn
// tail.
//
// A log file is a flat concatenation of records, each framed the way the
// wire protocol frames messages (src/net/wire.h):
//
//   offset  size  field
//   0       4     magic       0x57414C31 ("1LAW" on disk: wire::io is LE)
//   4       1     type        record kind, owned by the layer above
//   5       3     reserved    must be zero
//   8       4     length      payload bytes, <= kMaxRecordBytes
//   12      4     crc         CRC-32 (IEEE) over type byte ++ payload
//   16      len   payload
//
// ReadLog scans records front to back and stops at the first frame that is
// incomplete or fails validation (bad magic, nonzero reserved bytes,
// oversized length, CRC mismatch) — everything from that point on is
// treated as a torn tail from a crash mid-append and discarded. The caller
// learns the length of the valid prefix so it can truncate/continue the log
// from a clean boundary. A record is only trusted in full or not at all;
// corrupt bytes never propagate into recovery.
//
// Encoding reuses the header-only codecs in src/net/wire_io.h so the byte
// discipline (little-endian, explicit widths) matches the rest of the tree,
// and the CRC is the shared src/common/crc32.h one the wire frames use.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace eunomia::wal {

inline constexpr std::uint32_t kRecordMagic = 0x57414C31;  // "WAL1"
inline constexpr std::size_t kRecordHeaderBytes = 16;
// Same ceiling as a wire frame: nothing the WAL stores legitimately
// approaches this, so a larger length field is corruption, not data.
inline constexpr std::size_t kMaxRecordBytes = 16u << 20;

struct Record {
  std::uint8_t type = 0;
  std::string payload;
};

// A validated record viewed in place — both views alias the scanned bytes.
// `frame` spans the full framed form (header + payload), so a consumer that
// keeps the record verbatim can copy it without re-framing or re-CRCing.
struct RecordView {
  std::uint8_t type = 0;
  std::string_view payload;
  std::string_view frame;
};

// Fills the 16-byte frame header (magic, type, length, CRC) for `payload`;
// appending the payload bytes right after it forms the framed record. The
// split form lets an append pipeline frame without materializing the record:
// header on the stack, payload straight from the caller's buffer.
void BuildRecordHeader(char (&out)[kRecordHeaderBytes], std::uint8_t type,
                       std::string_view payload);

// Appends one framed record to `out`.
void AppendRecord(std::string* out, std::uint8_t type,
                  std::string_view payload);

enum class LogState {
  kClean,     // every byte belongs to a valid record
  kTornTail,  // a trailing partial/corrupt region was discarded
};

// Parses `bytes` into records. On return *valid_prefix (optional) is the
// byte length of the parsed prefix; bytes beyond it are the discarded tail.
LogState ReadLog(std::string_view bytes, std::vector<Record>* records,
                 std::size_t* valid_prefix = nullptr);

// Zero-copy variant: visits each valid record in place, with the same
// validation and torn-tail semantics as ReadLog but no payload copies or
// per-record allocations — what compaction wants, since a multi-megabyte
// log rewrite would otherwise spend most of its time duplicating payloads
// it is about to drop.
LogState ScanLog(std::string_view bytes,
                 const std::function<void(const RecordView&)>& visit,
                 std::size_t* valid_prefix = nullptr);

}  // namespace eunomia::wal

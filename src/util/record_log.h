// Durable records: the only code that touches the bytes of a crash-safe
// campaign file — telemetry/checkpoint and quarantine streams, the E_Fuzz
// corpus, lease claims, the recarve ledger, manifest.json and holes.json.
//
// Format. One single-line JSON object per '\n'-terminated line, CRC-framed:
// the final member is `"crc":"<8 lowercase hex>"`, the CRC-32 of the line
// with that member removed. Unframed legacy lines are accepted.
//
// Policy. Records never contain a raw newline, so a crash mid-append can
// only tear the unterminated final line. load() skips such a line with a
// warning when it fails to parse, and append() truncates it before retrying;
// a complete line that fails its checksum or parse is corruption and throws.
//
// Every operation retries transient errors through util::io_retrier() and
// throws util::IoError once retries are exhausted or the errno is permanent.
#pragma once

#include <exception>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace swarmfuzz::util::record_log {

// Splices the CRC member into `line`, which must be a single-line JSON
// object: `{...}` becomes `{...,"crc":"xxxxxxxx"}`.
[[nodiscard]] std::string frame(std::string line);

// Validates the trailing CRC member when present (unframed lines pass) and
// throws std::invalid_argument on a mismatch.
void check_frame(std::string_view line);

// The whole file, or nullopt when it does not exist.
[[nodiscard]] std::optional<std::string> read(const std::string& path);

// One line of a record file, without its terminator. `complete` is false
// for an unterminated final line — the torn-write crash signature.
struct Line {
  std::string_view text;
  bool complete = true;
};

// The non-empty lines of `content`, in order (views into `content`).
[[nodiscard]] std::vector<Line> split_lines(std::string_view content);

// Applies the policy to a line a parser rejected: warns for a torn final
// line, throws std::runtime_error naming `path` for a complete one.
void reject_line(const std::string& path, const Line& line,
                 const std::exception& error);

// Every record of `path` parsed by `parse(std::string_view)`, under the
// policy above. A missing file yields an empty vector.
template <typename Parse,
          typename T = std::invoke_result_t<Parse&, std::string_view>>
[[nodiscard]] std::vector<T> load(const std::string& path, Parse parse) {
  std::vector<T> records;
  const std::optional<std::string> content = read(path);
  if (!content) return records;
  for (const Line& line : split_lines(*content)) {
    try {
      records.push_back(parse(line.text));
    } catch (const std::exception& e) {
      reject_line(path, line, e);
    }
  }
  return records;
}

// Appends `line` + '\n' in one write, creating the file if needed. A failed
// attempt may land a prefix of the line, so every retry first heals the
// torn tail back to a line boundary.
void append(const std::string& path, std::string_view line);

// Truncates an unterminated final line so appending resumes on a line
// boundary instead of gluing a record onto the fragment. A missing file is
// a no-op.
void heal_torn_tail(const std::string& path);

// Replaces `path` with `content` atomically: written to `<path>.tmp` in the
// same directory, then renamed over `path`, so readers see the old content
// or the new, never a torn mix.
void write_file_atomic(const std::string& path, std::string_view content);

// Publishes `path` with `content` already inside, or not at all: the bytes
// go to a private temp file that is then hard-linked into place. Returns
// false when `path` already exists — exactly one of any number of racing
// creators wins, and no reader ever sees the file empty. A crash mid-call
// can orphan the temp file (`<path>.tmp.<pid>.<n>`), never a partial `path`.
[[nodiscard]] bool create_exclusive(const std::string& path,
                                    std::string_view content);

}  // namespace swarmfuzz::util::record_log

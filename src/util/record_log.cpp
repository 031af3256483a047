#include "util/record_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "util/crc32.h"
#include "util/logging.h"
#include "util/retry.h"

namespace swarmfuzz::util::record_log {
namespace {

// The checksum member is matched positionally — exactly at the end of the
// line — so a `"crc"` substring inside a detail string is never mistaken
// for it.
constexpr std::string_view kCrcPrefix = ",\"crc\":\"";
constexpr std::size_t kCrcHexLen = 8;
// ,"crc":" + 8 hex digits + "}
constexpr std::size_t kCrcSuffixLen = kCrcPrefix.size() + kCrcHexLen + 2;

// Writes all of `data` to `fd`, resuming short writes; false with errno set
// on failure.
bool write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t written = ::write(fd, data.data(), data.size());
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(written));
  }
  return true;
}

// Opens `path` with `flags`, writes `data` and closes; throws IoError. On
// failure the file is left as the failed write made it (append's retry
// heals it; temp files are removed by their callers).
void write_once(const std::string& path, int flags, std::string_view data) {
  const int fd = ::open(path.c_str(), flags | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) throw IoError("record_log: cannot open " + path, errno);
  const bool written = write_all(fd, data);
  const int write_errno = errno;
  const bool closed = ::close(fd) == 0;
  if (!written) throw IoError("record_log: short write to " + path, write_errno);
  if (!closed) throw IoError("record_log: cannot close " + path, errno);
}

// Writes `content` to a fresh `temp`, removing it again on failure.
void write_temp(const std::string& temp, std::string_view content) {
  try {
    write_once(temp, O_CREAT | O_TRUNC, content);
  } catch (const IoError&) {
    std::remove(temp.c_str());
    throw;
  }
}

}  // namespace

std::string frame(std::string line) {
  char hex[kCrcHexLen + 1];
  std::snprintf(hex, sizeof hex, "%08x", crc32(line));
  std::string member{kCrcPrefix};
  member.append(hex, kCrcHexLen);
  member.push_back('"');
  line.insert(line.size() - 1, member);
  return line;
}

void check_frame(std::string_view line) {
  if (line.size() < kCrcSuffixLen ||
      line.compare(line.size() - kCrcSuffixLen, kCrcPrefix.size(), kCrcPrefix) != 0 ||
      line.compare(line.size() - 2, 2, "\"}") != 0) {
    return;  // unframed legacy line; structural validity is the parser's job
  }
  const std::string_view hex =
      line.substr(line.size() - kCrcHexLen - 2, kCrcHexLen);
  std::uint32_t expected = 0;
  for (const char ch : hex) {
    const int digit = ch >= '0' && ch <= '9'   ? ch - '0'
                      : ch >= 'a' && ch <= 'f' ? ch - 'a' + 10
                                               : -1;
    if (digit < 0) return;  // not a checksum after all (e.g. 8-char hash field)
    expected = expected << 4 | static_cast<std::uint32_t>(digit);
  }
  const std::string_view body = line.substr(0, line.size() - kCrcSuffixLen);
  const std::uint32_t actual =
      crc32_final(crc32_update(crc32_update(crc32_init(), body), "}"));
  if (actual != expected) {
    throw std::invalid_argument("record_log: record checksum mismatch");
  }
}

std::optional<std::string> read(const std::string& path) {
  return io_retrier().run("record_read", [&]() -> std::optional<std::string> {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
      if (errno == ENOENT) return std::nullopt;
      throw IoError("record_log: cannot open " + path, errno);
    }
    std::string content;
    char buffer[1 << 14];
    std::size_t read = 0;
    while ((read = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
      content.append(buffer, read);
    }
    const bool failed = std::ferror(file) != 0;
    const int read_errno = errno;
    std::fclose(file);
    if (failed) throw IoError("record_log: cannot read " + path, read_errno);
    return content;
  });
}

std::vector<Line> split_lines(std::string_view content) {
  std::vector<Line> lines;
  std::size_t start = 0;
  while (start < content.size()) {
    std::size_t end = content.find('\n', start);
    const bool complete = end != std::string_view::npos;
    if (!complete) end = content.size();
    if (end > start) lines.push_back(Line{content.substr(start, end - start), complete});
    start = end + 1;
  }
  return lines;
}

void reject_line(const std::string& path, const Line& line,
                 const std::exception& error) {
  // Resuming past a corrupt complete line would silently drop its record.
  if (line.complete) {
    throw std::runtime_error("record_log: corrupt record in " + path + ": " +
                             error.what());
  }
  SWARMFUZZ_WARN("record_log: skipping torn final record in {} ({} bytes): {}",
                 path, line.text.size(), error.what());
}

void append(const std::string& path, std::string_view line) {
  std::string data{line};
  data.push_back('\n');
  bool retrying = false;
  io_retrier().run("record_append", [&] {
    if (retrying) heal_torn_tail(path);
    retrying = true;
    write_once(path, O_CREAT | O_APPEND, data);
  });
}

void heal_torn_tail(const std::string& path) {
  const std::optional<std::string> content = read(path);
  if (!content || content->empty() || content->back() == '\n') return;
  const std::size_t last_newline = content->rfind('\n');
  const std::size_t keep = last_newline == std::string::npos ? 0 : last_newline + 1;
  SWARMFUZZ_WARN("record_log: {} ends mid-record; truncating {} torn bytes",
                 path, content->size() - keep);
  std::error_code ec;
  std::filesystem::resize_file(path, keep, ec);
  if (ec) {
    throw IoError("record_log: cannot truncate torn tail of " + path + ": " +
                      ec.message(),
                  ec.value());
  }
}

void write_file_atomic(const std::string& path, std::string_view content) {
  const std::string temp = path + ".tmp";
  io_retrier().run("write_file_atomic", [&] {
    write_temp(temp, content);
    if (std::rename(temp.c_str(), path.c_str()) != 0) {
      const int rename_errno = errno;
      std::remove(temp.c_str());
      throw IoError("record_log: cannot rename " + temp + " to " + path,
                    rename_errno);
    }
  });
}

bool create_exclusive(const std::string& path, std::string_view content) {
  // The temp name is private to this process and call, so racing creators
  // never share one.
  static std::atomic<std::uint64_t> nonce{0};
  const std::string temp = path + ".tmp." + std::to_string(::getpid()) + "." +
                           std::to_string(nonce.fetch_add(1));
  return io_retrier().run("create_exclusive", [&]() -> bool {
    write_temp(temp, content);
    const bool linked = ::link(temp.c_str(), path.c_str()) == 0;
    const int link_errno = errno;
    std::remove(temp.c_str());
    if (linked) return true;
    if (link_errno == EEXIST) return false;
    throw IoError("record_log: cannot create " + path, link_errno);
  });
}

}  // namespace swarmfuzz::util::record_log

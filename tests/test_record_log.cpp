// Durable-record layer tests: CRC framing, the load policy (torn final line
// skipped, corrupt complete line fatal), heal-before-retry appends, the
// single-winner exclusive create and the atomic rewrite every record file
// format builds on.
#include "util/record_log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/retry.h"

namespace swarmfuzz::util::record_log {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = (std::filesystem::path{::testing::TempDir()} /
                            ("swarmfuzz_record_log_" + name))
                               .string();
  std::filesystem::remove_all(path);
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

// Test parser: accepts exactly the framed or unframed `{"n":<int>}` records
// this suite writes.
int parse_n(std::string_view line) {
  check_frame(line);
  constexpr std::string_view kPrefix = "{\"n\":";
  if (line.substr(0, kPrefix.size()) != kPrefix || line.back() != '}') {
    throw std::invalid_argument("not a test record");
  }
  return std::stoi(std::string{line.substr(kPrefix.size())});
}

TEST(RecordLog, FrameRoundTrips) {
  const std::string framed = frame(R"({"n":7})");
  EXPECT_EQ(framed.rfind(R"({"n":7,"crc":")", 0), 0u);
  EXPECT_EQ(framed.size(), std::string{R"({"n":7,"crc":"01234567"})"}.size());
  EXPECT_NO_THROW(check_frame(framed));
  EXPECT_EQ(parse_n(framed), 7);
}

TEST(RecordLog, CrcMismatchThrows) {
  std::string framed = frame(R"({"n":7})");
  framed[5] = '8';  // payload edited after framing
  EXPECT_THROW(check_frame(framed), std::invalid_argument);
}

TEST(RecordLog, LegacyUnframedLineIsAccepted) {
  EXPECT_NO_THROW(check_frame(R"({"n":7})"));
  const std::string path = temp_path("legacy.jsonl");
  spit(path, "{\"n\":1}\n" + frame(R"({"n":2})") + "\n");
  EXPECT_EQ(load(path, parse_n), (std::vector<int>{1, 2}));
}

TEST(RecordLog, SplitLinesFlagsTheUnterminatedTail) {
  const std::vector<Line> lines = split_lines("a\n\nb\nc");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].text, "a");
  EXPECT_TRUE(lines[0].complete);
  EXPECT_EQ(lines[1].text, "b");
  EXPECT_TRUE(lines[1].complete);
  EXPECT_EQ(lines[2].text, "c");
  EXPECT_FALSE(lines[2].complete);
}

TEST(RecordLog, TornFinalLineIsSkipped) {
  const std::string path = temp_path("torn.jsonl");
  const std::string full = frame(R"({"n":2})");
  spit(path, frame(R"({"n":1})") + "\n" + full.substr(0, full.size() / 2));
  EXPECT_EQ(load(path, parse_n), (std::vector<int>{1}));
}

TEST(RecordLog, CorruptCompleteLineThrowsNamingTheFile) {
  const std::string path = temp_path("corrupt.jsonl");
  spit(path, "garbage\n" + frame(R"({"n":1})") + "\n");
  try {
    (void)load(path, parse_n);
    FAIL() << "corrupt complete line did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find(path), std::string::npos);
  }
}

TEST(RecordLog, MissingFileReadsAsEmpty) {
  const std::string path = temp_path("missing.jsonl");
  EXPECT_FALSE(read(path).has_value());
  EXPECT_TRUE(load(path, parse_n).empty());
  EXPECT_NO_THROW(heal_torn_tail(path));
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(RecordLog, AppendWritesTerminatedLines) {
  const std::string path = temp_path("append.jsonl");
  append(path, frame(R"({"n":1})"));
  append(path, frame(R"({"n":2})"));
  EXPECT_EQ(load(path, parse_n), (std::vector<int>{1, 2}));
  EXPECT_EQ(slurp(path).back(), '\n');
}

TEST(RecordLog, AppendHealsTheTornTailBeforeRetrying) {
  // First attempt: the path is a symlink loop, so open() fails with ELOOP —
  // a transient errno. Between attempts the "failed write" leaves a torn
  // fragment behind a complete record; the retry must truncate it before
  // appending, or the two would glue into a corrupt complete line.
  const std::string path = temp_path("heal_retry.jsonl");
  std::filesystem::create_symlink(path, path);
  const std::string kept = frame(R"({"n":1})");
  const std::string torn = frame(R"({"n":9})").substr(0, 6);
  int sleeps = 0;
  io_retrier().reset();
  io_retrier().set_sleep([&](std::int64_t) {
    ++sleeps;
    std::filesystem::remove(path);
    spit(path, kept + "\n" + torn);
  });
  append(path, frame(R"({"n":2})"));
  io_retrier().set_sleep({});
  io_retrier().reset();
  EXPECT_EQ(sleeps, 1);
  EXPECT_EQ(slurp(path), kept + "\n" + frame(R"({"n":2})") + "\n");
  EXPECT_EQ(load(path, parse_n), (std::vector<int>{1, 2}));
}

TEST(RecordLog, HealTornTailKeepsCompleteLines) {
  const std::string path = temp_path("heal.jsonl");
  spit(path, "{\"n\":1}\n{\"n\":");
  heal_torn_tail(path);
  EXPECT_EQ(slurp(path), "{\"n\":1}\n");
  spit(path, "{\"n\"");
  heal_torn_tail(path);
  EXPECT_EQ(slurp(path), "");
}

TEST(RecordLog, CreateExclusiveHasOneWinnerAndPublishesItsContent) {
  const std::string path = temp_path("exclusive.claim");
  constexpr int kRacers = 8;
  std::atomic<int> winners{0};
  std::atomic<int> winner{-1};
  std::vector<std::thread> racers;
  for (int r = 0; r < kRacers; ++r) {
    racers.emplace_back([&, r] {
      if (create_exclusive(path, "racer " + std::to_string(r) + "\n")) {
        winners.fetch_add(1);
        winner.store(r);
      }
    });
  }
  for (std::thread& t : racers) t.join();
  EXPECT_EQ(winners.load(), 1);
  EXPECT_EQ(slurp(path), "racer " + std::to_string(winner.load()) + "\n");
  EXPECT_FALSE(create_exclusive(path, "late\n"));
  // No temp file is left behind by winners or losers.
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path{path}.parent_path())) {
    if (entry.path().filename().string().rfind(
            "swarmfuzz_record_log_exclusive", 0) == 0) {
      ++files;
    }
  }
  EXPECT_EQ(files, 1);
}

TEST(RecordLog, CreateExclusiveFailsLoudlyWithoutItsDirectory) {
  const std::string path = temp_path("no_such_dir") + "/x.claim";
  EXPECT_THROW((void)create_exclusive(path, ""), IoError);
}

TEST(WriteFileAtomic, WritesContentAndLeavesNoTempFile) {
  const std::string path = temp_path("basic.txt");
  std::remove(path.c_str());
  write_file_atomic(path, "campaign summary\n");
  EXPECT_EQ(slurp(path), "campaign summary\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(WriteFileAtomic, ReplacesExistingContentCompletely) {
  const std::string path = temp_path("replace.txt");
  write_file_atomic(path, std::string(4096, 'x'));
  write_file_atomic(path, "short");
  // Replacement, not truncate-in-place-then-write: no stale tail possible.
  EXPECT_EQ(slurp(path), "short");
  std::remove(path.c_str());
}

TEST(WriteFileAtomic, EmptyContentYieldsEmptyFile) {
  const std::string path = temp_path("empty.txt");
  write_file_atomic(path, "");
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_EQ(std::filesystem::file_size(path), 0u);
  std::remove(path.c_str());
}

TEST(WriteFileAtomic, ThrowsWhenDirectoryDoesNotExist) {
  const std::string path = temp_path("no_such_dir") + "/out.txt";
  EXPECT_THROW(write_file_atomic(path, "x"), std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(WriteFileAtomic, BinaryContentRoundTrips) {
  const std::string path = temp_path("binary.bin");
  std::string data{"a\0b\nc\r\nd", 8};
  data.push_back('\0');
  write_file_atomic(path, data);
  EXPECT_EQ(slurp(path), data);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace swarmfuzz::util::record_log

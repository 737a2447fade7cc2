// Tests for the common substrate: Status/Result, string utilities, RNG,
// CSV and CRC-32.

#include <gtest/gtest.h>

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/csv.h"
#include "common/fileio.h"
#include "common/journal.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"

namespace bayescrowd {
namespace {

// ------------------------------------------------------------------ //
// Status / Result
// ------------------------------------------------------------------ //

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  const Status st = Status::InvalidArgument("bad alpha");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad alpha");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
}

Status FailsWhenNegative(int x) {
  if (x < 0) return Status::OutOfRange("negative");
  return Status::OK();
}

Status UsesReturnNotOk(int x) {
  BAYESCROWD_RETURN_NOT_OK(FailsWhenNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(UsesReturnNotOk(1).ok());
  EXPECT_TRUE(UsesReturnNotOk(-1).IsOutOfRange());
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x * 2;
}

TEST(ResultTest, HoldsValueOrStatus) {
  auto good = ParsePositive(21);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  auto bad = ParsePositive(-3);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

Result<int> ChainsAssignOrReturn(int x) {
  BAYESCROWD_ASSIGN_OR_RETURN(const int doubled, ParsePositive(x));
  return doubled + 1;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(ChainsAssignOrReturn(5).value(), 11);
  EXPECT_FALSE(ChainsAssignOrReturn(0).ok());
}

// ------------------------------------------------------------------ //
// String utilities
// ------------------------------------------------------------------ //

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, JoinRoundTrips) {
  EXPECT_EQ(Join({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, TrimStripsWhitespace) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, ParseIntHandlesEdges) {
  int v = 0;
  EXPECT_TRUE(ParseInt("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt(" -7 ", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(ParseInt("4x", &v));
  EXPECT_FALSE(ParseInt("", &v));
}

TEST(StringUtilTest, ParseDoubleHandlesEdges) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(ParseDouble("-1e-3", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
}

TEST(StringUtilTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("%d/%s", 3, "x"), "3/x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

// ------------------------------------------------------------------ //
// Rng
// ------------------------------------------------------------------ //

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(5);
  Rng b(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(5);
  Rng b(6);
  EXPECT_NE(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBelow(7), 7u);
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(2);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NextDiscreteFollowsWeights) {
  Rng rng(4);
  const std::vector<double> weights = {1.0, 3.0};
  int ones = 0;
  for (int i = 0; i < 20000; ++i) {
    ones += rng.NextDiscrete(weights) == 1 ? 1 : 0;
  }
  EXPECT_NEAR(ones / 20000.0, 0.75, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(6);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(8);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  auto shuffled_sorted = v;
  std::sort(shuffled_sorted.begin(), shuffled_sorted.end());
  EXPECT_EQ(shuffled_sorted, sorted);
}

// ------------------------------------------------------------------ //
// CSV
// ------------------------------------------------------------------ //

TEST(CsvTest, ParsesHeaderAndRows) {
  const auto doc = ParseCsv("a,b\n1,2\n3,4\n", /*has_header=*/true);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(doc->rows.size(), 2u);
  EXPECT_EQ(doc->rows[1][1], "4");
}

TEST(CsvTest, HandlesQuotesAndEscapes) {
  const auto doc =
      ParseCsv("\"x,y\",\"he said \"\"hi\"\"\"\nplain,2\n", false);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[0][0], "x,y");
  EXPECT_EQ(doc->rows[0][1], "he said \"hi\"");
}

TEST(CsvTest, RejectsRaggedRows) {
  EXPECT_FALSE(ParseCsv("a,b\n1\n", true).ok());
}

TEST(CsvTest, RejectsUnterminatedQuote) {
  EXPECT_FALSE(ParseCsv("\"abc\n", false).ok());
}

TEST(CsvTest, FormatQuotesWhenNeeded) {
  EXPECT_EQ(FormatCsvRow({"a", "b,c", "d\"e"}), "a,\"b,c\",\"d\"\"e\"\n");
}

TEST(CsvTest, FileRoundTrip) {
  CsvDocument doc;
  doc.header = {"name", "value"};
  doc.rows = {{"x", "1"}, {"y, z", "2"}};
  const std::string path = ::testing::TempDir() + "/bc_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(path, doc).ok());
  const auto loaded = ReadCsvFile(path, true);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->header, doc.header);
  EXPECT_EQ(loaded->rows, doc.rows);
}

TEST(StopwatchTest, MeasuresNonNegativeTime) {
  Stopwatch watch;
  EXPECT_GE(watch.ElapsedSeconds(), 0.0);
  watch.Restart();
  EXPECT_GE(watch.ElapsedMicros(), 0.0);
}

// ------------------------------------------------------------------ //
// CRC-32
// ------------------------------------------------------------------ //

// The bytewise table loop the slicing-by-8 implementation replaced,
// kept as the reference.
std::uint32_t ReferenceCrc32(std::uint32_t crc, const unsigned char* bytes,
                             std::size_t size) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  crc ^= 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, CheckValue) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(Crc32Test, MatchesBytewiseLoopAtEveryLengthOffsetAndSplit) {
  Rng rng(0xC4C32);
  std::string buffer(1024 + 8, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.NextInt(0, 255));
  const auto* bytes = reinterpret_cast<const unsigned char*>(buffer.data());
  for (int trial = 0; trial < 400; ++trial) {
    // Lengths cover the tail-only, exact-block and mixed cases; offsets
    // leave the start unaligned.
    const std::size_t offset = static_cast<std::size_t>(rng.NextInt(0, 7));
    const std::size_t size = trial < 64 ? static_cast<std::size_t>(trial)
                                        : static_cast<std::size_t>(
                                              rng.NextInt(0, 1024));
    const unsigned char* start = bytes + offset;
    const std::uint32_t expected = ReferenceCrc32(0, start, size);
    ASSERT_EQ(Crc32Update(0, start, size), expected)
        << "size " << size << " offset " << offset;
    // Chained updates over any split equal the one-shot value, and a
    // non-zero running CRC extends like the reference.
    const std::size_t split =
        static_cast<std::size_t>(rng.NextInt(0, static_cast<int>(size)));
    const std::uint32_t head = Crc32Update(0, start, split);
    EXPECT_EQ(Crc32Update(head, start + split, size - split), expected)
        << "size " << size << " split " << split;
    EXPECT_EQ(Crc32Update(head, start + split, size - split),
              ReferenceCrc32(head, start + split, size - split));
  }
}

// ------------------------------------------------------------------ //
// Journal: the one framing and load rule of every durable file.
// ------------------------------------------------------------------ //

constexpr JournalFormat kTestJournal = {"TJNL", 3, "test journal"};

std::string Record(std::string_view payload) {
  std::string record;
  BAYESCROWD_CHECK_OK(EncodeJournalRecord(payload, &record));
  return record;
}

TEST(JournalTest, EveryTruncationLoadsTheWholeRecordPrefix) {
  const std::vector<std::string> payloads = {"first", "", "third record"};
  std::string bytes = JournalHeader(kTestJournal);
  std::vector<std::size_t> ends;  // File size after each record.
  for (const std::string& payload : payloads) {
    bytes += Record(payload);
    ends.push_back(bytes.size());
  }
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    SCOPED_TRACE("length " + std::to_string(len));
    const auto load = ParseJournal(bytes.substr(0, len), kTestJournal);
    ASSERT_TRUE(load.ok()) << load.status().ToString();
    std::size_t whole = 0;
    while (whole < ends.size() && ends[whole] <= len) ++whole;
    ASSERT_EQ(load->records.size(), whole);
    for (std::size_t i = 0; i < whole; ++i) {
      EXPECT_EQ(load->records[i], payloads[i]);
    }
    // Torn exactly when the cut falls inside the header or a record.
    const bool on_boundary =
        len == 0 || len == 8 ||
        std::find(ends.begin(), ends.end(), len) != ends.end();
    EXPECT_EQ(load->torn, !on_boundary);
  }
}

TEST(JournalTest, CrcFlipInTheMiddleRecordKeepsRecordOne) {
  std::string bytes = JournalHeader(kTestJournal) + Record("one");
  const std::size_t middle = bytes.size() + 5;  // Inside "two"'s payload.
  bytes += Record("two") + Record("three");
  bytes[middle] = static_cast<char>(bytes[middle] ^ 0x01);
  const auto load = ParseJournal(bytes, kTestJournal);
  ASSERT_TRUE(load.ok());
  EXPECT_EQ(load->records, std::vector<std::string>{"one"});
  EXPECT_TRUE(load->torn);
}

TEST(JournalTest, ForeignMagicAndOtherVersionsAreRefused) {
  std::string bytes = JournalHeader(kTestJournal) + Record("x");
  std::string foreign = bytes;
  foreign[0] = 'X';
  EXPECT_TRUE(ParseJournal(foreign, kTestJournal).status().IsIOError());
  EXPECT_TRUE(ParseJournal("TJ?", kTestJournal).status().IsIOError());
  for (const std::uint32_t version : {2u, 4u}) {
    std::string other = bytes;
    other[4] = static_cast<char>(version);
    const Status refused = ParseJournal(other, kTestJournal).status();
    EXPECT_TRUE(refused.IsInvalidArgument()) << refused.ToString();
    EXPECT_NE(refused.message().find(version < 3 ? "older" : "newer"),
              std::string::npos)
        << refused.message();
  }
}

TEST(JournalTest, PayloadTooLongForItsLengthFieldIsRefused) {
  // 4 GiB + 1 of untouched, unreserved address space: a valid range that
  // costs no memory as long as nothing reads it.
  const std::size_t size = (std::size_t{1} << 32) + 1;
  void* region = mmap(nullptr, size, PROT_READ,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ASSERT_NE(region, MAP_FAILED);
  std::string out;
  const Status encoded = EncodeJournalRecord(
      std::string_view(static_cast<const char*>(region), size), &out);
  munmap(region, size);
  EXPECT_TRUE(encoded.IsInvalidArgument()) << encoded.ToString();
  EXPECT_TRUE(out.empty());
}

TEST(JournalTest, AppendThenLoadAndMissingFileLoadsEmpty) {
  const std::string path = ::testing::TempDir() + "/bc_journal_append.bin";
  std::filesystem::remove(path);
  const auto missing = LoadJournal(nullptr, path, kTestJournal);
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->records.empty());
  EXPECT_FALSE(missing->torn);
  {
    JournalWriter journal(nullptr, path, kTestJournal);
    ASSERT_TRUE(journal.Append({"a", "b"}).ok());
    ASSERT_TRUE(journal.Append({"c"}).ok());
  }
  const auto load = LoadJournal(nullptr, path, kTestJournal);
  ASSERT_TRUE(load.ok());
  EXPECT_EQ(load->records, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(JournalTest, FailedRewriteLeavesTheOldBytes) {
  const std::string path = ::testing::TempDir() + "/bc_journal_rewrite.bin";
  std::filesystem::remove(path);
  ASSERT_TRUE(
      JournalWriter(nullptr, path, kTestJournal).Rewrite({"old"}).ok());
  const std::string before = RealFileIo()->ReadFile(path).value();
  for (const bool sync_fails : {false, true}) {
    FaultPlan plan;
    (sync_fails ? plan.sync_fail_rate : plan.write_fail_rate) = 1.0;
    FaultInjectingFileIo io(plan);
    const Status rewritten =
        JournalWriter(&io, path, kTestJournal).Rewrite({"new", "bytes"});
    EXPECT_TRUE(rewritten.IsIOError()) << rewritten.ToString();
    EXPECT_EQ(RealFileIo()->ReadFile(path).value(), before);
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  }
  ASSERT_TRUE(
      JournalWriter(nullptr, path, kTestJournal).Rewrite({"new"}).ok());
  EXPECT_EQ(LoadJournal(nullptr, path, kTestJournal)->records,
            std::vector<std::string>{"new"});
}

/// Forwards every call to `target`, which a test switches between a
/// faulty and a healthy IO under one JournalWriter.
class SwitchableFileIo : public FileIo {
 public:
  FileIo* target = RealFileIo();

  Result<std::string> ReadFile(const std::string& path) override {
    return target->ReadFile(path);
  }
  Status WriteFileDurable(const std::string& path,
                          std::string_view bytes) override {
    return target->WriteFileDurable(path, bytes);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return target->Rename(from, to);
  }
  Status RemoveFile(const std::string& path) override {
    return target->RemoveFile(path);
  }
  Status SyncDir(const std::string& dir) override {
    return target->SyncDir(dir);
  }
  Status CreateDirs(const std::string& dir) override {
    return target->CreateDirs(dir);
  }
  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    return target->ListDir(dir);
  }
  Result<std::unique_ptr<AppendFile>> OpenAppend(const std::string& path,
                                                 bool truncate) override {
    return target->OpenAppend(path, truncate);
  }
};

TEST(JournalTest, AppendAfterAFailedWriteKeepsTheLaterRecords) {
  const std::string path = ::testing::TempDir() + "/bc_journal_torn.bin";
  std::filesystem::remove(path);
  FaultPlan plan;
  plan.write_fail_rate = 1.0;  // Every write lands half its bytes.
  FaultInjectingFileIo faulty(plan);
  SwitchableFileIo io;
  JournalWriter journal(&io, path, kTestJournal);

  // The first write is the header: half of it lands.
  io.target = &faulty;
  EXPECT_TRUE(journal.Append({"lost"}).IsIOError());
  EXPECT_EQ(RealFileIo()->ReadFile(path).value(),
            JournalHeader(kTestJournal).substr(0, 4));
  io.target = RealFileIo();
  ASSERT_TRUE(journal.Append({"kept"}).ok());

  // A record's frame is torn behind a whole header (a second writer,
  // since the first keeps its healthy handle open).
  JournalWriter second(&io, path, kTestJournal);
  io.target = &faulty;
  EXPECT_TRUE(second.Append({"torn record"}).IsIOError());
  io.target = RealFileIo();
  ASSERT_TRUE(second.Append({"after"}).ok());
  auto load = LoadJournal(nullptr, path, kTestJournal);
  ASSERT_TRUE(load.ok()) << load.status().ToString();
  EXPECT_EQ(load->records, (std::vector<std::string>{"kept", "after"}));
  EXPECT_FALSE(load->torn);

  // A new writer over a file cut inside its header (a kill during the
  // first write) repairs it the same way...
  const std::string header = JournalHeader(kTestJournal);
  ASSERT_TRUE(RealFileIo()->WriteFileDurable(path, header.substr(0, 3)).ok());
  ASSERT_TRUE(JournalWriter(nullptr, path, kTestJournal).Append({"x"}).ok());
  load = LoadJournal(nullptr, path, kTestJournal);
  ASSERT_TRUE(load.ok());
  EXPECT_EQ(load->records, std::vector<std::string>{"x"});

  // ...and refuses a short foreign file without rewriting it.
  ASSERT_TRUE(RealFileIo()->WriteFileDurable(path, "XY").ok());
  EXPECT_TRUE(
      JournalWriter(nullptr, path, kTestJournal).Append({"y"}).IsIOError());
  EXPECT_EQ(RealFileIo()->ReadFile(path).value(), "XY");
}

}  // namespace
}  // namespace bayescrowd

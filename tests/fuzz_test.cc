// Fuzz-style robustness tests: random and adversarial inputs must never
// crash — they either parse or fail with a clean Status.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bayesnet/serialization.h"
#include "common/csv.h"
#include "common/journal.h"
#include "common/random.h"
#include "core/query_spec.h"
#include "crowd/record_replay.h"
#include "data/dataset_io.h"
#include "data/generators.h"
#include "data/missing.h"

namespace bayescrowd {
namespace {

std::string RandomBytes(Rng& rng, std::size_t length,
                        const std::string& alphabet) {
  std::string out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    out.push_back(alphabet[rng.NextBelow(alphabet.size())]);
  }
  return out;
}

TEST(FuzzTest, CsvParserNeverCrashesOnNoise) {
  Rng rng(0xF00D);
  const std::string alphabet = "abc,\"\n\r 0123\\;|\t";
  for (int round = 0; round < 500; ++round) {
    const std::string noise =
        RandomBytes(rng, rng.NextBelow(200), alphabet);
    for (const bool header : {true, false}) {
      const auto doc = ParseCsv(noise, header);
      if (doc.ok()) {
        // Whatever parsed must re-serialize without crashing.
        for (const auto& row : doc->rows) {
          (void)FormatCsvRow(row);
        }
      } else {
        EXPECT_FALSE(doc.status().message().empty());
      }
    }
  }
}

TEST(FuzzTest, CsvQuotedRoundTripOnRandomFields) {
  Rng rng(0xBEEF);
  const std::string alphabet = "ab,\"\n\r x";
  for (int round = 0; round < 300; ++round) {
    std::vector<std::string> fields;
    const std::size_t width = 1 + rng.NextBelow(5);
    for (std::size_t f = 0; f < width; ++f) {
      fields.push_back(RandomBytes(rng, rng.NextBelow(12), alphabet));
    }
    const std::string serialized = FormatCsvRow(fields);
    const auto doc = ParseCsv(serialized, /*has_header=*/false);
    ASSERT_TRUE(doc.ok()) << "round " << round;
    // CRLF-vs-LF normalization aside, a single serialized row must
    // parse back to exactly the same fields.
    ASSERT_EQ(doc->rows.size(), 1u);
    EXPECT_EQ(doc->rows[0], fields) << "round " << round;
  }
}

TEST(FuzzTest, TableLoaderNeverCrashesOnNoise) {
  Rng rng(0xABBA);
  const std::string alphabet = "name:,a1?\n-0123456789 x";
  const std::string path = ::testing::TempDir() + "/bc_fuzz_table.csv";
  for (int round = 0; round < 300; ++round) {
    CsvDocument doc;
    doc.header = {"name", "a:4"};
    // Write raw noise instead of a valid document half the time.
    if (rng.NextBool(0.5)) {
      std::ofstream out(path, std::ios::binary);
      out << RandomBytes(rng, rng.NextBelow(150), alphabet);
    } else {
      doc.rows = {{RandomBytes(rng, 3, alphabet),
                   RandomBytes(rng, 2, alphabet)}};
      (void)WriteCsvFile(path, doc);
    }
    const auto loaded = LoadTableCsv(path);
    if (loaded.ok()) {
      EXPECT_LE(loaded->num_objects(), 10u);
    }
  }
}

// Deterministic malformed fixtures: each rejection must be a clean
// InvalidArgument whose message names the offending row/cell, and each
// tolerated quirk must load.
TEST(FuzzTest, TableLoaderRejectsMalformedRowsWithContext) {
  const std::string path = ::testing::TempDir() + "/bc_malformed.csv";
  const auto write = [&](const std::string& text) {
    std::ofstream out(path, std::ios::binary);
    out << text;
  };

  struct Fixture {
    const char* name;
    const char* text;
    const char* expect_in_message;  // nullptr = must load cleanly.
  };
  const Fixture fixtures[] = {
      {"bad arity", "name,a:4\no1,1,7\n", "expected 2"},
      {"non-numeric cell", "name,a:4\no1,1\no2,zap\n",
       "not an integer level"},
      {"NaN cell", "name,a:4\no1,NaN\n", "NaN is not a level"},
      {"Inf cell", "name,a:4\no1,-inf\n", "Inf is not a level"},
      {"fractional cell", "name,a:4\no1,2.5\n",
       "fractional levels are not allowed"},
      {"level above domain", "name,a:4\no1,4\n", "outside domain"},
      {"negative level", "name,a:4\no1,-2\n", "outside domain"},
      {"bad header domain", "name,a:zero\no1,1\n", "malformed header"},
      {"header missing name", "id,a:4\no1,1\n", "expected header"},
      {"unterminated quote", "name,a:4\n\"o1,1\n", "unterminated"},
      {"blank lines tolerated", "name,a:4\n\no1,1\n\no2,?\n\n", nullptr},
      {"missing cells tolerated", "name,a:4\no1,?\n", nullptr},
  };
  for (const Fixture& fixture : fixtures) {
    write(fixture.text);
    const auto loaded = LoadTableCsv(path);
    if (fixture.expect_in_message == nullptr) {
      EXPECT_TRUE(loaded.ok()) << fixture.name << ": "
                               << loaded.status().ToString();
      continue;
    }
    ASSERT_FALSE(loaded.ok()) << fixture.name;
    EXPECT_TRUE(loaded.status().IsInvalidArgument()) << fixture.name;
    EXPECT_NE(loaded.status().message().find(fixture.expect_in_message),
              std::string::npos)
        << fixture.name << ": got '" << loaded.status().message() << "'";
  }

  // Row context makes the message actionable: the second data row and
  // the attribute name must both appear.
  write("name,points:4\nok,1\nbroken,NaN\n");
  const auto loaded = LoadTableCsv(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("row 2"), std::string::npos)
      << loaded.status().message();
  EXPECT_NE(loaded.status().message().find("'points'"), std::string::npos)
      << loaded.status().message();
  EXPECT_NE(loaded.status().message().find("'broken'"), std::string::npos)
      << loaded.status().message();
}

TEST(FuzzTest, NetworkDeserializerNeverCrashesOnNoise) {
  Rng rng(0xD00F);
  const std::string alphabet =
      "bayesnet v1\nnodes edge cpt 0123456789 .end#";
  for (int round = 0; round < 500; ++round) {
    const std::string noise =
        RandomBytes(rng, rng.NextBelow(250), alphabet);
    const auto net = DeserializeNetwork(noise);
    if (!net.ok()) {
      EXPECT_FALSE(net.status().message().empty());
    }
  }
}

TEST(FuzzTest, NetworkDeserializerSurvivesMutatedValidInput) {
  // Take a valid serialization and flip random characters.
  const Table data = MakeAdultLike(200, 3);
  Dag dag(data.num_attributes());
  BAYESCROWD_CHECK_OK(dag.AddEdge(0, 1));
  auto net = BayesianNetwork::Create(data.schema(), dag);
  BAYESCROWD_CHECK_OK(net.status());
  BAYESCROWD_CHECK_OK(net->FitParameters(data));
  const std::string valid = SerializeNetwork(net.value());

  Rng rng(0xFEED);
  for (int round = 0; round < 300; ++round) {
    std::string mutated = valid;
    const std::size_t flips = 1 + rng.NextBelow(5);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.NextBelow(mutated.size())] =
          static_cast<char>('0' + rng.NextBelow(75));
    }
    (void)DeserializeNetwork(mutated);  // Must not crash or hang.
  }
}

TEST(FuzzTest, AnswerLogDecoderDecodesOrRefusesRandomPayloads) {
  // Random payloads inside valid journal frames pass the CRC, so only
  // the entry decoder stands between them and the replay. Each must
  // decode to an entry that re-encodes to the same bytes, or be
  // refused; none may crash the decoder.
  AnswerLogEntry entry;
  entry.expression = Expression::VarVar({4, 1}, CmpOp::kGreater, {1, 1});
  entry.relation = Ordering::kGreater;
  entry.round = 2;
  entry.votes = {{7, Ordering::kLess, 31.25}, {2, Ordering::kEqual, 4.0}};
  const std::string valid = EncodeAnswerLogEntry(entry);
  Rng rng(0xA110);
  std::size_t decoded = 0;
  for (int round = 0; round < 2000; ++round) {
    std::string payload;
    if (round % 2 == 0) {
      // Small bytes, so kind/operator/relation fields often land in
      // their domains and the decoder gets past its first checks.
      payload = RandomBytes(rng, rng.NextBelow(80),
                            std::string("\x00\x01\x02\x03\x10\xff", 6));
    } else {
      payload = valid;
      const std::size_t flips = 1 + rng.NextBelow(3);
      for (std::size_t f = 0; f < flips; ++f) {
        payload[rng.NextBelow(payload.size())] =
            static_cast<char>(rng.NextBelow(256));
      }
    }
    std::string file = JournalHeader(kAnswerLogFormat);
    BAYESCROWD_CHECK_OK(EncodeJournalRecord(payload, &file));
    const auto journal = ParseJournal(file, kAnswerLogFormat);
    ASSERT_TRUE(journal.ok());
    ASSERT_EQ(journal->records.size(), 1u);
    AnswerLogEntry out;
    if (DecodeAnswerLogEntry(journal->records[0], &out).ok()) {
      ++decoded;
      EXPECT_EQ(EncodeAnswerLogEntry(out), payload);
    }
  }
  EXPECT_GT(decoded, 0u);  // The mutations must not all be refused.
}

TEST(FuzzTest, InjectorsTolerateExtremeRates) {
  const Table complete = MakeIndependent(50, 3, 4, 1);
  Rng rng(2);
  EXPECT_TRUE(InjectMissingUniform(complete, 0.0, rng).IsComplete());
  EXPECT_EQ(InjectMissingUniform(complete, 1.0, rng).MissingCells().size(),
            150u);
  (void)InjectMissingMnar(complete, 0.0, rng);
  (void)InjectMissingMnar(complete, 0.99, rng);
  (void)InjectMissingMar(complete, 0.99, 0, rng);
}

// ------------------------------------------------------------------ //
// The query-spec reader: mutated create requests either parse or fail
// with InvalidArgument, and whatever parses dumps canonically.
// ------------------------------------------------------------------ //

using Members = std::vector<std::pair<std::string, std::string>>;

std::string ObjectText(const Members& members) {
  std::string out = "{";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + members[i].first + "\":" + members[i].second;
  }
  return out + "}";
}

TEST(FuzzTest, QuerySpecReaderRejectsOrRoundTripsMutatedRequests) {
  // The serve tool's create request: its own keys plus the query keys.
  constexpr KeyDef kCreateKeys[] = {
      {"op", KeyKind::kString},      {"id", KeyKind::kString},
      {"tenant", KeyKind::kString},  {"dataset", KeyKind::kObject},
  };
  const std::vector<Members> seeds = {
      {{"op", "\"create\""},
       {"id", "\"s1\""},
       {"tenant", "\"acme\""},
       {"dataset", R"({"kind":"nba","n":120,"seed":9})"},
       {"alpha", "0.01"},
       {"budget", "24"},
       {"latency", "4"},
       {"m", "5"},
       {"structure", "\"none\""}},
      {{"strategy", "\"ubs\""},
       {"budget", "20"},
       {"solver_node_budget", "4"},
       {"solver_ladder", "\"full\""},
       {"breaker_threshold", "2"},
       {"pessimistic", "true"}},
      {{"marketplace", "20"},
       {"spam_rate", "0.3"},
       {"adaptive_votes", "5"},
       {"seed", "11"},
       {"no_defense", "true"}},
      {{"tasks_per_round", "3"}, {"budget", "12"}, {"accuracy", "0.9"}},
  };
  const std::vector<std::string> values = {
      "0", "-1", "1", "3", "0.5", "1e308", "-0", "4294967298",
      "9223372036854775807", "-9223372036854775808",
      "18446744073709551616", "true", "false", "null", "\"hhs\"",
      "\"none\"", "\"\"", "[1,[2,{}]]", R"({"x":{"y":[[[]]]}})", "{}",
  };
  std::vector<std::string> keys;
  for (const KeyDef& def : QueryKeys()) keys.push_back(def.name);
  for (const KeyDef& def : kCreateKeys) keys.push_back(def.name);
  keys.push_back("budegt");

  Rng rng(0x5bec);
  std::size_t accepted = 0;
  for (int round = 0; round < 3000; ++round) {
    Members members = seeds[rng.NextBelow(seeds.size())];
    const std::size_t mutations = 1 + rng.NextBelow(3);
    for (std::size_t m = 0; m < mutations; ++m) {
      const std::size_t at =
          members.empty() ? 0 : rng.NextBelow(members.size());
      switch (rng.NextBelow(5)) {
        case 0:  // Drop a key.
          if (!members.empty()) members.erase(members.begin() + at);
          break;
        case 1:  // Duplicate a key, possibly with another value.
          if (!members.empty()) {
            const std::string value =
                rng.NextBool(0.5) ? members[at].second
                                  : values[rng.NextBelow(values.size())];
            members.push_back({members[at].first, value});
          }
          break;
        case 2:  // Retype or stretch a value.
          if (!members.empty()) {
            members[at].second = values[rng.NextBelow(values.size())];
          }
          break;
        case 3:  // Add any known (or misspelled) key.
          members.push_back({keys[rng.NextBelow(keys.size())],
                             values[rng.NextBelow(values.size())]});
          break;
        default:  // Nest garbage under a key.
          if (!members.empty()) {
            members[at].second =
                "{\"" + members[at].first + "\":" + members[at].second + "}";
          }
          break;
      }
    }
    const std::string text = ObjectText(members);
    const auto doc = obs::JsonValue::Parse(text);
    ASSERT_TRUE(doc.ok()) << text;
    const auto spec = ParseQuerySpec(*doc, {kCreateKeys});
    if (!spec.ok()) {
      ASSERT_TRUE(spec.status().IsInvalidArgument())
          << text << " -> " << spec.status().ToString();
      continue;
    }
    ++accepted;
    const std::string dump = QuerySpecToJson(*spec).Dump();
    const auto reparsed = obs::JsonValue::Parse(dump);
    ASSERT_TRUE(reparsed.ok()) << dump;
    const auto again = ParseQuerySpec(*reparsed);
    ASSERT_TRUE(again.ok()) << dump << " -> " << again.status().ToString();
    ASSERT_EQ(QuerySpecToJson(*again).Dump(), dump) << text;
  }
  // Both outcomes are exercised.
  EXPECT_GT(accepted, 100u);
  EXPECT_LT(accepted, 2900u);
}

TEST(FuzzTest, QuerySpecFlagsNeverCrash) {
  // Random command lines of query flags: the CLI's conversion plus the
  // reader accept or refuse with InvalidArgument, never anything else.
  const std::vector<std::string> texts = {
      "",  "0", "-1", "5", "2.5", "nan", "inf", "1e400", "abc", "true",
      "false", "hhs", "full", "off", "none", "99999999999999999999",
      "-9223372036854775808", " 7", "0x10",
  };
  std::vector<std::string> flags;
  for (const KeyDef& def : QueryKeys()) {
    std::string flag = def.name;
    for (char& c : flag) {
      if (c == '_') c = '-';
    }
    flags.push_back(flag);
  }
  flags.push_back("budegt");
  Rng rng(0xf1a9);
  for (int round = 0; round < 2000; ++round) {
    std::map<std::string, std::string> raw;
    const std::size_t count = rng.NextBelow(5);
    for (std::size_t i = 0; i < count; ++i) {
      raw[flags[rng.NextBelow(flags.size())]] =
          texts[rng.NextBelow(texts.size())];
    }
    const auto doc = FlagsToJson(raw, {QueryKeys()});
    if (!doc.ok()) {
      ASSERT_TRUE(doc.status().IsInvalidArgument());
      continue;
    }
    const auto spec = ParseQuerySpec(*doc, {}, KeyStyle::kFlag);
    if (!spec.ok()) ASSERT_TRUE(spec.status().IsInvalidArgument());
  }
}

}  // namespace
}  // namespace bayescrowd

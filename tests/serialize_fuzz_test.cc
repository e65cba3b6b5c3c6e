// Fuzz-style corpus test for STHoles::DeserializeBinary: the deserializer is
// the one boundary where a histogram is rebuilt from an untrusted byte
// stream (a file, a network peer, another process's snapshot), so it must
// return an error Status on anything malformed — never crash, hang,
// overflow an allocation, or leak (the ASan+UBSan CI job runs this suite
// with leak detection on).
//
// Two layers are fuzzed. The frame (magic, version, payload size, FNV-1a
// checksum): a hand-written corpus, every header byte flipped, exhaustive
// truncation, and seeded random mutations. The frame's checksum rejects
// almost any edit before a payload byte is read, so the payload checks
// (geometry, depth discipline, counts vs size) get their own corpus and
// mutation runs, re-framed with a valid checksum so every input reaches
// them. Whatever *is* accepted must satisfy CheckInvariants and
// re-serialize stably.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/binfmt.h"
#include "core/rng.h"
#include "core/status.h"
#include "data/generators.h"
#include "histogram/stholes.h"
#include "workload/query.h"
#include "workload/workload.h"

namespace sthist {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Size of the STHB payload preamble: u32 dim | u64 bucket count.
constexpr size_t kPreambleSize = 12;

STHolesConfig Budget(size_t buckets) {
  STHolesConfig config;
  config.max_buckets = buckets;
  return config;
}

// A trained 2-d histogram's STHB blob, the seed for mutation corpora.
std::string TrainedBinarySerialization(size_t buckets, size_t queries) {
  CrossConfig data_config;
  data_config.tuples_per_cluster = 1500;
  data_config.noise_tuples = 300;
  GeneratedData g = MakeCross(data_config);
  Executor executor(g.data);
  STHoles h(g.domain, static_cast<double>(g.data.size()), Budget(buckets));
  WorkloadConfig wc;
  wc.num_queries = queries;
  Workload w = MakeWorkload(g.domain, wc);
  for (const Box& q : w) h.Refine(q, executor);
  return h.SerializeBinary();
}

// Uniform over all 256 byte values. The double is narrowed to uint8_t first:
// converting a value above 127 straight to a signed char is undefined.
char RandomByte(Rng* rng) {
  return static_cast<char>(static_cast<uint8_t>(rng->Uniform(0.0, 256.0)));
}

// Wraps an STHB payload in a frame whose checksum matches it.
std::string Reframe(std::string_view payload) {
  return binfmt::Frame("STHB", STHoles::kBinaryFormatVersion, payload);
}

// One pre-order bucket record: depth, bounds as lo0 hi0 lo1 hi1 ...,
// frequency. Nothing ties `bounds` to the declared dim, so a corpus entry
// can disagree with its own header.
struct Record {
  uint32_t depth = 0;
  std::vector<double> bounds;
  double frequency = 0.0;
};

// A framed STHB blob declaring `dim` and `buckets` and carrying `records`.
std::string Blob(uint32_t dim, uint64_t buckets,
                 const std::vector<Record>& records) {
  std::string payload;
  binfmt::AppendU32(&payload, dim);
  binfmt::AppendU64(&payload, buckets);
  for (const Record& r : records) {
    binfmt::AppendU32(&payload, r.depth);
    for (double bound : r.bounds) binfmt::AppendF64(&payload, bound);
    binfmt::AppendF64(&payload, r.frequency);
  }
  return Reframe(payload);
}

// The contract under fuzzing: an error Status with a diagnostic, or a
// histogram that passes invariants and round-trips.
void ExpectBinaryRejectedOrValid(std::string_view input) {
  StatusOr<std::unique_ptr<STHoles>> hist =
      STHoles::DeserializeBinary(input, Budget(50));
  if (!hist.ok()) {
    EXPECT_FALSE(hist.status().message().empty());
    return;
  }
  (*hist)->CheckInvariants();
  EXPECT_TRUE(std::isfinite((*hist)->TotalFrequency()));
  const std::string reserialized = (*hist)->SerializeBinary();
  StatusOr<std::unique_ptr<STHoles>> again =
      STHoles::DeserializeBinary(reserialized, Budget(50));
  EXPECT_TRUE(again.ok());
}

TEST(SerializeFuzzTest, BinaryWrongVersionNamesBothVersions) {
  std::string blob = TrainedBinarySerialization(20, 40);
  ASSERT_GE(blob.size(), 24u);
  // The version field is the little-endian u32 after the 4-byte magic.
  blob[4] = 3;
  blob[5] = blob[6] = blob[7] = 0;
  StatusOr<std::unique_ptr<STHoles>> hist =
      STHoles::DeserializeBinary(blob, Budget(50));
  ASSERT_FALSE(hist.ok());
  const std::string& message = hist.status().message();
  // The diagnostic names the version found AND the version this build
  // reads — the operator-facing half of the evolution policy.
  EXPECT_NE(message.find("version 3"), std::string::npos) << message;
  EXPECT_NE(message.find(std::string("version ") +
                         std::to_string(STHoles::kBinaryFormatVersion)),
            std::string::npos)
      << message;
}

TEST(SerializeFuzzTest, BinaryStructuredCorruptionCorpus) {
  const std::string valid = TrainedBinarySerialization(15, 30);
  ASSERT_GE(valid.size(), 24u);

  std::vector<std::string> corpus = {
      "",
      "S",
      "STH",
      "STHB",                      // Magic only, no header.
      "not a histogram",
      std::string(24, '\0'),       // Zeroed header.
      valid.substr(0, 24),         // Header without payload.
      valid + std::string(1, 0),   // Trailing byte (size mismatch).
      valid + valid,               // Doubled file.
      std::string("STHX") + valid.substr(4),  // Wrong magic.
  };
  // Every header byte flipped, one at a time: magic, version, payload size,
  // checksum — each must fail its own check.
  for (size_t i = 0; i < 24; ++i) {
    std::string mutated = valid;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x5a);
    corpus.push_back(std::move(mutated));
  }
  // Every payload byte flipped in a stride: the checksum must catch all of
  // them (a flip that also fixes FNV-1a would need a second preimage).
  for (size_t i = 24; i < valid.size(); i += 7) {
    std::string mutated = valid;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xff);
    corpus.push_back(std::move(mutated));
  }

  for (size_t i = 0; i < corpus.size(); ++i) {
    SCOPED_TRACE("binary corpus entry " + std::to_string(i));
    StatusOr<std::unique_ptr<STHoles>> hist =
        STHoles::DeserializeBinary(corpus[i], Budget(50));
    EXPECT_FALSE(hist.ok());
  }
  // The unmutated blob still decodes.
  EXPECT_TRUE(STHoles::DeserializeBinary(valid, Budget(50)).ok());
}

// Payloads with a valid frame that break one payload rule each. Every entry
// must be rejected by the check named in `diagnostic`, which proves it got
// past Unframe and the checks before it.
TEST(SerializeFuzzTest, BinaryPayloadCorpusIsRejected) {
  struct Entry {
    const char* name;
    std::string blob;
    const char* diagnostic;
  };
  const char* kCounts = "zero dimensions or zero buckets";
  const char* kSize = "payload size inconsistent";
  const char* kBound = "non-finite or inverted bound";
  const char* kFrequency = "non-finite or negative frequency";
  const char* kDepth = "out-of-order depth";
  const std::vector<Entry> corpus = {
      // Counts and sizes.
      {"payload shorter than its preamble", Reframe("abc"), "preamble"},
      {"zero dimensions", Blob(0, 1, {{0, {}, 5}}), kCounts},
      {"zero buckets", Blob(2, 0, {}), kCounts},
      {"dim far beyond the payload",
       Blob(1000000, 2, {{0, {0, 1}, 5}}), kSize},
      {"dim at u32 max", Blob(~uint32_t{0}, 1, {{0, {0, 1, 0, 1}, 5}}),
       kSize},
      {"buckets far beyond the records",
       Blob(2, 1000000, {{0, {0, 1, 0, 1}, 5}}), kSize},
      {"buckets at u64 max", Blob(2, ~uint64_t{0}, {{0, {0, 1, 0, 1}, 5}}),
       kSize},
      {"missing record", Blob(1, 2, {{0, {0, 10}, 5}}), kSize},
      {"extra record", Blob(1, 1, {{0, {0, 10}, 5}, {1, {1, 2}, 1}}), kSize},
      {"trailing bytes after the last record",
       Blob(1, 1, {{0, {0, 10, 7}, 5}}), kSize},

      // Non-finite fields: NaN slips through ordering comparisons, so only
      // explicit finiteness checks catch these.
      {"NaN root lo", Blob(2, 1, {{0, {kNaN, 1, 0, 1}, 5}}), kBound},
      {"NaN root hi", Blob(2, 1, {{0, {0, kNaN, 0, 1}, 5}}), kBound},
      {"NaN root frequency", Blob(2, 1, {{0, {0, 1, 0, 1}, kNaN}}),
       kFrequency},
      {"infinite root bounds", Blob(2, 1, {{0, {kInf, kInf, 0, 1}, 5}}),
       kBound},
      {"negative infinite root lo", Blob(2, 1, {{0, {-kInf, 1, 0, 1}, 5}}),
       kBound},
      {"infinite root frequency", Blob(2, 1, {{0, {0, 1, 0, 1}, kInf}}),
       kFrequency},
      {"NaN child frequency",
       Blob(2, 2, {{0, {0, 10, 0, 10}, 5}, {1, {1, 2, 1, 2}, kNaN}}),
       kFrequency},
      {"infinite child bound",
       Blob(2, 2, {{0, {0, 10, 0, 10}, 5}, {1, {1, kInf, 1, 2}, 1}}),
       kBound},

      // Geometry.
      {"inverted root", Blob(2, 1, {{0, {1, 0, 0, 1}, 5}}), kBound},
      {"zero-volume root", Blob(2, 1, {{0, {0, 0, 0, 0}, 5}}), "volume"},
      // The extents multiply to inf * 0 = NaN. It must be rejected here:
      // the STHoles constructor aborts on a volume that is not positive.
      {"NaN-volume root", Blob(2, 1, {{0, {-1e308, 1e308, 0, 0}, 5}}),
       "volume"},
      {"child escapes its parent",
       Blob(1, 2, {{0, {0, 10}, 5}, {1, {8, 20}, 1}}), "escapes"},
      {"overlapping siblings",
       Blob(1, 3, {{0, {0, 10}, 5}, {1, {1, 4}, 1}, {1, {3, 6}, 1}}),
       "overlaps a sibling"},
      {"duplicate siblings",
       Blob(1, 3, {{0, {0, 10}, 5}, {1, {1, 4}, 1}, {1, {1, 4}, 1}}),
       "overlaps a sibling"},
      {"negative child frequency",
       Blob(1, 2, {{0, {0, 10}, 5}, {1, {2, 5}, -1}}), kFrequency},
      {"inverted child", Blob(1, 2, {{0, {0, 10}, 5}, {1, {5, 2}, 1}}),
       kBound},

      // Structure.
      {"second root", Blob(1, 2, {{0, {0, 10}, 5}, {0, {1, 2}, 1}}), kDepth},
      {"depth jump", Blob(1, 2, {{0, {0, 10}, 5}, {3, {1, 2}, 1}}), kDepth},
      {"depth 2 without a depth-1 ancestor",
       Blob(1, 2, {{0, {0, 100}, 10}, {2, {10, 20}, 1}}), kDepth},
      {"root not at depth 0", Blob(1, 2, {{1, {0, 10}, 5}, {1, {1, 2}, 1}}),
       "not depth 0"},
  };
  for (const Entry& entry : corpus) {
    SCOPED_TRACE(entry.name);
    StatusOr<std::unique_ptr<STHoles>> hist =
        STHoles::DeserializeBinary(entry.blob, Budget(50));
    ASSERT_FALSE(hist.ok());
    const std::string& message = hist.status().message();
    EXPECT_FALSE(message.empty());
    EXPECT_NE(message.find(entry.diagnostic), std::string::npos) << message;
  }

  // Control: a well-formed Blob() decodes (siblings that only touch do not
  // overlap) and re-serializes to the identical bytes, so the rejections
  // above are the entries' faults, not Blob()'s.
  const std::string good =
      Blob(1, 3, {{0, {0, 10}, 5}, {1, {1, 4}, 1}, {1, {4, 6}, 2}});
  StatusOr<std::unique_ptr<STHoles>> hist =
      STHoles::DeserializeBinary(good, Budget(50));
  ASSERT_TRUE(hist.ok()) << hist.status().ToString();
  EXPECT_EQ((*hist)->bucket_count(), 2u);
  EXPECT_EQ((*hist)->SerializeBinary(), good);
}

TEST(SerializeFuzzTest, BinaryEveryTruncationIsRejected) {
  const std::string blob = TrainedBinarySerialization(25, 60);
  ASSERT_GT(blob.size(), 100u);
  // The header pins the exact payload size, so *every* strict prefix must
  // be rejected (and must not crash) — the torn-file half of §17.
  for (size_t len = 0; len < blob.size(); ++len) {
    StatusOr<std::unique_ptr<STHoles>> hist = STHoles::DeserializeBinary(
        std::string_view(blob.data(), len), Budget(25));
    EXPECT_FALSE(hist.ok()) << "prefix of " << len << " bytes accepted";
  }
  EXPECT_TRUE(STHoles::DeserializeBinary(blob, Budget(25)).ok());
}

TEST(SerializeFuzzTest, BinaryRandomMutationsNeverCrash) {
  const std::string blob = TrainedBinarySerialization(20, 40);
  Rng rng(20260808);
  for (int iter = 0; iter < 400; ++iter) {
    std::string mutated = blob;
    int edits = 1 + static_cast<int>(rng.Uniform(0.0, 4.0));
    for (int e = 0; e < edits && !mutated.empty(); ++e) {
      size_t pos = static_cast<size_t>(
          rng.Uniform(0.0, static_cast<double>(mutated.size())));
      pos = std::min(pos, mutated.size() - 1);
      double kind = rng.Uniform(0.0, 3.0);
      char byte = RandomByte(&rng);
      if (kind < 1.0) {
        mutated[pos] = byte;
      } else if (kind < 2.0) {
        mutated.insert(pos, 1, byte);
      } else {
        mutated.erase(pos, 1);
      }
    }
    SCOPED_TRACE("binary mutation iteration " + std::to_string(iter));
    ExpectBinaryRejectedOrValid(mutated);
  }
}

// Payload-level mutations re-framed with a valid checksum, so each one
// reaches the payload checks: whole records dropped, duplicated or swapped
// (with the bucket count kept in step, so the size check passes and the
// depth and geometry checks decide), or 1-4 payload bytes overwritten.
TEST(SerializeFuzzTest, BinaryReframedPayloadMutationsNeverCrash) {
  const std::string blob = TrainedBinarySerialization(20, 40);
  StatusOr<std::string_view> framed =
      binfmt::Unframe("STHB", STHoles::kBinaryFormatVersion, blob);
  ASSERT_TRUE(framed.ok());
  const std::string payload(*framed);
  const uint32_t dim = binfmt::ReadU32(payload.data());
  const size_t record_size = 4 + 16 * size_t{dim} + 8;
  std::vector<std::string> records;
  for (size_t at = kPreambleSize; at < payload.size(); at += record_size) {
    records.push_back(payload.substr(at, record_size));
  }
  ASSERT_GT(records.size(), 3u);

  Rng rng(7);
  size_t accepted = 0;
  for (int iter = 0; iter < 400; ++iter) {
    std::string mutated;
    if (iter % 2 == 0) {
      // Record splice. The root (record 0) stays in place.
      std::vector<std::string> spliced = records;
      auto pick = [&] {
        return std::min<size_t>(
            1 + static_cast<size_t>(rng.Uniform(
                    0.0, static_cast<double>(spliced.size() - 1))),
            spliced.size() - 1);
      };
      const size_t a = pick();
      const size_t b = pick();
      const double kind = rng.Uniform(0.0, 3.0);
      if (kind < 1.0) {
        spliced.erase(spliced.begin() + a);
      } else if (kind < 2.0) {
        spliced.insert(spliced.begin() + a, spliced[b]);
      } else {
        std::swap(spliced[a], spliced[b]);
      }
      binfmt::AppendU32(&mutated, dim);
      binfmt::AppendU64(&mutated, spliced.size());
      for (const std::string& record : spliced) mutated += record;
    } else {
      mutated = payload;
      const int edits = 1 + static_cast<int>(rng.Uniform(0.0, 4.0));
      for (int e = 0; e < edits; ++e) {
        const size_t pos = std::min(
            static_cast<size_t>(
                rng.Uniform(0.0, static_cast<double>(mutated.size()))),
            mutated.size() - 1);
        mutated[pos] = RandomByte(&rng);
      }
    }
    SCOPED_TRACE("payload mutation iteration " + std::to_string(iter));
    const std::string reframed = Reframe(mutated);
    if (STHoles::DeserializeBinary(reframed, Budget(50)).ok()) ++accepted;
    ExpectBinaryRejectedOrValid(reframed);
  }
  // Both outcomes occur: some edits keep the tree valid (a bound moved
  // within its slack, sibling records swapped), most break a rule.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, 400u);
}

TEST(SerializeFuzzTest, BinaryAcceptedRoundTripIsByteStable) {
  const std::string blob = TrainedBinarySerialization(30, 80);
  StatusOr<std::unique_ptr<STHoles>> first =
      STHoles::DeserializeBinary(blob, Budget(30));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const std::string second_blob = (*first)->SerializeBinary();
  EXPECT_EQ(second_blob, blob);
  StatusOr<std::unique_ptr<STHoles>> second =
      STHoles::DeserializeBinary(second_blob, Budget(30));
  ASSERT_TRUE(second.ok());
  (*second)->CheckInvariants();
}

}  // namespace
}  // namespace sthist

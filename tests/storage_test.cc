// Persistence-tier tests (src/storage/): snapshot codec round-trips are
// bit-identical and zero-copy (decoded columns point INTO the mapping);
// truncated or bit-flipped files are rejected with kCorruption, never a
// crash or a silently different block; the artifact store's commit
// protocol survives a 100-seed injected-fault sweep over every crash
// window (storage.write / storage.fsync / storage.rename); and a service
// restarted over a snapshot answers its first repeated request from the
// warm cache, bit-identically, with warm-started solves.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "core/matching_context.h"
#include "core/pipeline.h"
#include "datagen/synthetic.h"
#include "eval/gold.h"
#include "service/service.h"
#include "storage/artifact_store.h"
#include "storage/bytes.h"
#include "storage/checksum.h"
#include "storage/content_hash.h"
#include "storage/io.h"
#include "storage/snapshot.h"

namespace explain3d {
namespace {

using storage::ArtifactStore;
using storage::Checksum64;
using storage::DecodedArtifacts;
using storage::MmapFile;

SyntheticDataset MakeData(uint64_t seed, size_t n = 60) {
  SyntheticOptions gen;
  gen.n = n;
  gen.d = 0.25;
  gen.v = 120;
  gen.seed = seed;
  return GenerateSynthetic(gen).value();
}

/// Runs stage 1+2 over `data` with a caching context and returns the
/// cached (key, block) pair — the exact thing the persistence tier
/// snapshots in production.
std::pair<std::string, ArtifactsPtr> BuildArtifacts(
    const SyntheticDataset& data) {
  MatchingContext ctx;
  PipelineInput input;
  input.db1 = &data.db1;
  input.db2 = &data.db2;
  input.sql1 = data.sql1;
  input.sql2 = data.sql2;
  input.attr_matches = data.attr_matches;
  input.mapping_options.min_probability = 1e-4;
  input.calibration_oracle =
      MakeRowEntityOracle(data.row_entities1, data.row_entities2);
  input.matching_context = &ctx;
  Explain3DConfig config;
  config.num_threads = 1;
  EXPECT_TRUE(RunExplain3D(input, config).ok());
  auto entries = ctx.Entries();
  EXPECT_EQ(entries.size(), 1u);
  return entries.front();
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  EXPECT_EQ(a.name(), b.name());
  ASSERT_EQ(a.schema().num_columns(), b.schema().num_columns());
  for (size_t c = 0; c < a.schema().num_columns(); ++c) {
    EXPECT_EQ(a.schema().column(c).name, b.schema().column(c).name);
    EXPECT_EQ(a.schema().column(c).type, b.schema().column(c).type);
  }
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    ASSERT_EQ(a.row(r).size(), b.row(r).size()) << "row " << r;
    for (size_t c = 0; c < a.row(r).size(); ++c) {
      EXPECT_EQ(a.row(r)[c], b.row(r)[c]) << "row " << r << " col " << c;
    }
  }
}

void ExpectCanonicalEqual(const CanonicalRelation& a,
                          const CanonicalRelation& b) {
  EXPECT_EQ(a.key_attrs, b.key_attrs);
  EXPECT_EQ(a.agg, b.agg);
  EXPECT_EQ(a.integral_impacts, b.integral_impacts);
  ASSERT_EQ(a.tuples.size(), b.tuples.size());
  for (size_t i = 0; i < a.tuples.size(); ++i) {
    ASSERT_EQ(a.tuples[i].key.size(), b.tuples[i].key.size()) << i;
    for (size_t c = 0; c < a.tuples[i].key.size(); ++c) {
      EXPECT_EQ(a.tuples[i].key[c], b.tuples[i].key[c]) << i;
    }
    EXPECT_EQ(a.tuples[i].impact, b.tuples[i].impact) << i;
    EXPECT_EQ(a.tuples[i].prov_rows, b.tuples[i].prov_rows) << i;
  }
}

template <typename T>
void ExpectSpansEqual(Span<const T> a, Span<const T> b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (a.size() > 0) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0)
        << what;
  }
}

void ExpectArtifactsBitIdentical(const Stage1Artifacts& a,
                                 const Stage1Artifacts& b) {
  EXPECT_EQ(a.answer1, b.answer1);
  EXPECT_EQ(a.answer2, b.answer2);
  ExpectTablesEqual(a.p1.table, b.p1.table);
  ExpectTablesEqual(a.p2.table, b.p2.table);
  EXPECT_EQ(a.p1.impact, b.p1.impact);
  EXPECT_EQ(a.p2.impact, b.p2.impact);
  EXPECT_EQ(a.p1.agg, b.p1.agg);
  EXPECT_EQ(a.p1.integral_impacts, b.p1.integral_impacts);
  ExpectCanonicalEqual(a.t1, b.t1);
  ExpectCanonicalEqual(a.t2, b.t2);
  ASSERT_EQ(a.dict.size(), b.dict.size());
  for (uint32_t id = 0; id < a.dict.size(); ++id) {
    EXPECT_EQ(a.dict.token(id), b.dict.token(id)) << "token " << id;
  }
  EXPECT_EQ(a.candidates, b.candidates);
  ASSERT_EQ(a.i1 != nullptr, b.i1 != nullptr);
  ASSERT_EQ(a.i2 != nullptr, b.i2 != nullptr);
  if (a.i1 != nullptr) {
    InternedColumns ca = a.i1->columns(), cb = b.i1->columns();
    ExpectSpansEqual(ca.token_ids, cb.token_ids, "i1.token_ids");
    ExpectSpansEqual(ca.cell_starts, cb.cell_starts, "i1.cell_starts");
    ExpectSpansEqual(ca.tuple_cell_starts, cb.tuple_cell_starts,
                     "i1.tuple_cell_starts");
    ExpectSpansEqual(ca.key_union_ids, cb.key_union_ids, "i1.key_union_ids");
    ExpectSpansEqual(ca.key_union_starts, cb.key_union_starts,
                     "i1.key_union_starts");
    ExpectSpansEqual(ca.bag_ids, cb.bag_ids, "i1.bag_ids");
    ExpectSpansEqual(ca.bag_starts, cb.bag_starts, "i1.bag_starts");
    ExpectSpansEqual(ca.cell_kinds, cb.cell_kinds, "i1.cell_kinds");
    ExpectSpansEqual(ca.cell_coercible, cb.cell_coercible,
                     "i1.cell_coercible");
    ExpectSpansEqual(ca.cell_numeric, cb.cell_numeric, "i1.cell_numeric");
  }
  if (a.i2 != nullptr) {
    InternedColumns ca = a.i2->columns(), cb = b.i2->columns();
    ExpectSpansEqual(ca.token_ids, cb.token_ids, "i2.token_ids");
    ExpectSpansEqual(ca.cell_numeric, cb.cell_numeric, "i2.cell_numeric");
    ExpectSpansEqual(ca.bag_ids, cb.bag_ids, "i2.bag_ids");
  }
}

std::string TempPath(const std::string& name) {
  return storage::JoinPath(::testing::TempDir(), name);
}

/// TempDir() persists across runs of the binary; a store directory must
/// start empty or a leftover commit from a previous run restores into
/// the test's "fresh" service.
std::string FreshDir(const std::string& name) {
  std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  return dir;
}

// --- checksum + content hash ------------------------------------------------

TEST(ChecksumTest, DeterministicAndSensitive) {
  std::vector<uint8_t> bytes(1021);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  uint64_t base = Checksum64(bytes.data(), bytes.size());
  EXPECT_EQ(base, Checksum64(bytes.data(), bytes.size()));
  // Any single flipped bit, anywhere (word interior or the ragged tail),
  // must change the checksum.
  for (size_t pos : {size_t{0}, size_t{3}, size_t{512}, bytes.size() - 1}) {
    bytes[pos] ^= 0x10;
    EXPECT_NE(base, Checksum64(bytes.data(), bytes.size())) << pos;
    bytes[pos] ^= 0x10;
  }
  // Length is mixed in: a zero-extended buffer hashes differently.
  std::vector<uint8_t> longer = bytes;
  longer.push_back(0);
  EXPECT_NE(base, Checksum64(longer.data(), longer.size()));
}

TEST(ContentHashTest, TracksContentsNotIdentityOrName) {
  SyntheticDataset data = MakeData(7);
  Database copy = data.db1;  // same contents, different object
  EXPECT_EQ(storage::DatabaseContentHash(data.db1),
            storage::DatabaseContentHash(copy));
  EXPECT_NE(storage::DatabaseContentHash(data.db1),
            storage::DatabaseContentHash(data.db2));
  SyntheticDataset other = MakeData(8);
  EXPECT_NE(storage::DatabaseContentHash(data.db1),
            storage::DatabaseContentHash(other.db1));
  EXPECT_EQ(storage::ContentIdentity(data.db1, data.db2),
            storage::ContentIdentity(copy, data.db2));
}

// --- snapshot codec ---------------------------------------------------------

TEST(SnapshotRoundTripTest, MmapLoadIsBitIdenticalAndZeroCopy) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    SyntheticDataset data = MakeData(seed);
    auto [key, art] = BuildArtifacts(data);
    std::vector<uint8_t> bytes = storage::EncodeArtifacts(key, *art);
    ASSERT_EQ(storage::VerifySnapshotBytes(bytes.data(), bytes.size()),
              Status::OK());

    const std::string path =
        TempPath("roundtrip-" + std::to_string(seed) + ".e3ds");
    ASSERT_TRUE(
        storage::WriteFileAtomic(path, bytes.data(), bytes.size()).ok());
    Result<MmapFile> mapped = MmapFile::Open(path);
    ASSERT_TRUE(mapped.ok());
    auto file = std::make_shared<MmapFile>(std::move(mapped).value());
    const uint8_t* map_begin = file->data();
    const uint8_t* map_end = map_begin + file->size();

    Result<DecodedArtifacts> decoded = storage::DecodeArtifacts(file);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().key, key);
    const Stage1Artifacts& loaded = *decoded.value().artifacts;
    ExpectArtifactsBitIdentical(*art, loaded);

    // Zero-copy proof: the decoded relations BORROW their columnar
    // arrays — the spans point into the mapping, not at fresh copies,
    // and the block pins the mapping via storage_owner.
    ASSERT_NE(loaded.i1, nullptr);
    EXPECT_TRUE(loaded.i1->borrowed());
    EXPECT_TRUE(loaded.i2->borrowed());
    const uint8_t* col =
        reinterpret_cast<const uint8_t*>(loaded.i1->columns().token_ids.data());
    EXPECT_GE(col, map_begin);
    EXPECT_LT(col, map_end);
    EXPECT_NE(loaded.storage_owner, nullptr);

    // The mapping must live exactly as long as the block: dropping the
    // local file reference leaves the block's columns valid.
    size_t checksum_before =
        loaded.i1->columns().token_ids.empty()
            ? 0
            : loaded.i1->columns().token_ids[0];
    file.reset();
    EXPECT_EQ(checksum_before, loaded.i1->columns().token_ids.empty()
                                   ? 0
                                   : loaded.i1->columns().token_ids[0]);
  }
}

TEST(SnapshotCorruptionTest, TruncationIsRejected) {
  SyntheticDataset data = MakeData(21);
  auto [key, art] = BuildArtifacts(data);
  std::vector<uint8_t> bytes = storage::EncodeArtifacts(key, *art);
  // Every truncation point (strided for runtime, plus the boundary
  // cases) must fail verification — and must fail DECODE with
  // kCorruption too, never crash.
  std::vector<size_t> cuts = {0, 1, 7, 8, 19, 20, bytes.size() / 2,
                              bytes.size() - 1};
  for (size_t cut = 64; cut < bytes.size(); cut += 997) cuts.push_back(cut);
  for (size_t cut : cuts) {
    Status verify = storage::VerifySnapshotBytes(bytes.data(), cut);
    EXPECT_FALSE(verify.ok()) << "cut=" << cut;
    EXPECT_EQ(verify.code(), StatusCode::kCorruption) << "cut=" << cut;

    const std::string path = TempPath("truncated.e3ds");
    ASSERT_TRUE(storage::WriteFileAtomic(path, bytes.data(), cut).ok());
    Result<MmapFile> mapped = MmapFile::Open(path);
    ASSERT_TRUE(mapped.ok());
    Result<DecodedArtifacts> decoded = storage::DecodeArtifacts(
        std::make_shared<MmapFile>(std::move(mapped).value()));
    ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
        << "cut=" << cut;
  }
}

TEST(SnapshotCorruptionTest, BitFlipsNeverYieldADifferentBlock) {
  SyntheticDataset data = MakeData(22);
  auto [key, art] = BuildArtifacts(data);
  std::vector<uint8_t> bytes = storage::EncodeArtifacts(key, *art);
  // Strided single-bit flips across the whole file. Every flip must
  // either be caught (kCorruption) or be provably harmless — a flip in
  // alignment padding that still decodes to the bit-identical block.
  // What can never happen: an OK decode of DIFFERENT data, or a crash.
  size_t stride = std::max<size_t>(1, bytes.size() / 199);
  for (size_t pos = 0; pos < bytes.size(); pos += stride) {
    std::vector<uint8_t> flipped = bytes;
    flipped[pos] ^= 1u << (pos % 8);
    const std::string path = TempPath("bitflip.e3ds");
    ASSERT_TRUE(
        storage::WriteFileAtomic(path, flipped.data(), flipped.size()).ok());
    Result<MmapFile> mapped = MmapFile::Open(path);
    ASSERT_TRUE(mapped.ok());
    Result<DecodedArtifacts> decoded = storage::DecodeArtifacts(
        std::make_shared<MmapFile>(std::move(mapped).value()));
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
          << "pos=" << pos;
      continue;
    }
    EXPECT_EQ(decoded.value().key, key) << "pos=" << pos;
    ExpectArtifactsBitIdentical(*art, *decoded.value().artifacts);
  }
}

// An incumbent file exactly as format v1 wrote it: the v2 layout plus a
// per-unit decode-engine byte after each unit's objective.
std::vector<uint8_t> VersionOneIncumbentFile(
    const std::vector<std::pair<std::string, SolverIncumbents>>& entries) {
  storage::ByteWriter w;
  w.PutU32(static_cast<uint32_t>(entries.size()));
  for (const auto& [key, inc] : entries) {
    w.PutString(key);
    w.PutDouble(inc.objective);
    w.PutU8(inc.complete ? 1 : 0);
    w.PutU32(static_cast<uint32_t>(inc.units.size()));
    for (const UnitIncumbent& u : inc.units) {
      w.PutU64(u.fingerprint);
      w.PutDouble(u.objective);
      w.PutU8(1);
    }
  }
  std::vector<uint8_t> payload = w.Take();
  std::vector<uint8_t> buf(20 + payload.size(), 0);
  std::memcpy(buf.data(), "E3DINCB1", 8);
  const uint32_t version = 1;
  std::memcpy(buf.data() + 8, &version, 4);
  const uint64_t checksum = Checksum64(payload.data(), payload.size());
  std::memcpy(buf.data() + 12, &checksum, 8);
  std::memcpy(buf.data() + 20, payload.data(), payload.size());
  return buf;
}

std::vector<std::pair<std::string, SolverIncumbents>> SampleIncumbents() {
  std::vector<std::pair<std::string, SolverIncumbents>> entries(2);
  entries[0].first = "key-a";
  entries[0].second.objective = -3.25;
  entries[0].second.complete = true;
  entries[0].second.units.push_back({0x1234567890abcdefULL, -1.5});
  entries[0].second.units.push_back({42, -1.75});
  entries[1].first = "key-b";
  entries[1].second.objective = -0.5;
  entries[1].second.complete = true;
  return entries;
}

void ExpectSampleIncumbents(
    const std::vector<std::pair<std::string, SolverIncumbents>>& got) {
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].first, "key-a");
  EXPECT_EQ(got[0].second.objective, -3.25);
  EXPECT_TRUE(got[0].second.complete);
  ASSERT_EQ(got[0].second.units.size(), 2u);
  EXPECT_EQ(got[0].second.units[0].fingerprint, 0x1234567890abcdefULL);
  EXPECT_EQ(got[0].second.units[0].objective, -1.5);
  EXPECT_EQ(got[0].second.units[1].fingerprint, 42u);
  EXPECT_EQ(got[0].second.units[1].objective, -1.75);
  EXPECT_EQ(got[1].first, "key-b");
  EXPECT_EQ(got[1].second.objective, -0.5);
  EXPECT_TRUE(got[1].second.units.empty());
}

TEST(IncumbentCodecTest, RoundTripAndCorruption) {
  std::vector<uint8_t> bytes = storage::EncodeIncumbents(SampleIncumbents());
  auto decoded = storage::DecodeIncumbents(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok());
  ExpectSampleIncumbents(decoded.value());

  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::vector<uint8_t> flipped = bytes;
    flipped[pos] ^= 0x40;
    auto bad = storage::DecodeIncumbents(flipped.data(), flipped.size());
    EXPECT_FALSE(bad.ok()) << "pos=" << pos;
  }
  for (size_t cut : {size_t{0}, size_t{8}, size_t{19}, bytes.size() - 1}) {
    EXPECT_FALSE(storage::DecodeIncumbents(bytes.data(), cut).ok())
        << "cut=" << cut;
  }
}

TEST(IncumbentCodecTest, VersionOneFilesStillDecode) {
  std::vector<uint8_t> v1 = VersionOneIncumbentFile(SampleIncumbents());
  auto decoded = storage::DecodeIncumbents(v1.data(), v1.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSampleIncumbents(decoded.value());

  // The current writer emits v2: one byte per unit shorter than v1.
  std::vector<uint8_t> v2 = storage::EncodeIncumbents(SampleIncumbents());
  uint32_t version = 0;
  std::memcpy(&version, v2.data() + 8, 4);
  EXPECT_EQ(version, storage::kIncumbentVersion);
  EXPECT_EQ(version, 2u);
  EXPECT_EQ(v1.size(), v2.size() + 2);

  // The header's version picks the layout: a v1 body under a v2 header
  // (the checksum covers the body only) misparses and is rejected.
  std::vector<uint8_t> relabeled = v1;
  std::memcpy(relabeled.data() + 8, &version, 4);
  auto bad = storage::DecodeIncumbents(relabeled.data(), relabeled.size());
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
  // A version from the future is refused.
  std::vector<uint8_t> future = v2;
  const uint32_t v3 = 3;
  std::memcpy(future.data() + 8, &v3, 4);
  auto refused = storage::DecodeIncumbents(future.data(), future.size());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kCorruption);
}

// --- artifact store ---------------------------------------------------------

TEST(ArtifactStoreTest, CommitIsTheAtomicPublishPoint) {
  SyntheticDataset data = MakeData(31);
  auto [key, art] = BuildArtifacts(data);
  const std::string dir = FreshDir("store-atomic");

  {
    Result<ArtifactStore> store = ArtifactStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value().PutArtifacts(key, *art).ok());
    // Written but NOT committed: a reopened store must not see it.
    Result<ArtifactStore> reader = ArtifactStore::Open(dir);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.value().LoadAllArtifacts().value().size(), 0u);
    EXPECT_EQ(reader.value().commit_seq(), 0u);
    // The uncommitted file is an orphan; GC from the reader reclaims it.
    EXPECT_EQ(reader.value().GarbageCollect().value(), 1u);
  }
  {
    Result<ArtifactStore> store = ArtifactStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value().PutArtifacts(key, *art).ok());
    SolverIncumbents inc;
    inc.objective = -1.0;
    inc.complete = true;
    inc.units.push_back({7, -1.0});
    store.value().PutIncumbents("inc-key", inc);
    ASSERT_TRUE(store.value().Commit().ok());
    EXPECT_EQ(store.value().commit_seq(), 1u);
  }
  Result<ArtifactStore> reopened = ArtifactStore::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value().commit_seq(), 1u);
  EXPECT_EQ(reopened.value().last_log_seq(), 1u);  // log/manifest agree
  EXPECT_EQ(reopened.value().VerifyAll(), Status::OK());
  auto loaded = reopened.value().LoadAllArtifacts();
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 1u);
  EXPECT_EQ(loaded.value()[0].key, key);
  ExpectArtifactsBitIdentical(*art, *loaded.value()[0].artifacts);
  auto incumbents = reopened.value().LoadIncumbents();
  ASSERT_TRUE(incumbents.ok());
  ASSERT_EQ(incumbents.value().size(), 1u);
  EXPECT_EQ(incumbents.value()[0].first, "inc-key");
  EXPECT_EQ(incumbents.value()[0].second.units.size(), 1u);
  // Nothing uncommitted: GC finds no orphans.
  EXPECT_EQ(reopened.value().GarbageCollect().value(), 0u);
}

// A store committed before the v2 incumbent format (v1 incumbent file)
// must still open: its stage-1 snapshots restore unchanged, and its
// incumbent records load (their keys simply never match a current
// Stage2ConfigTag).
TEST(ArtifactStoreTest, OpensStoreWithVersionOneIncumbentFile) {
  SyntheticDataset data = MakeData(33);
  auto [key, art] = BuildArtifacts(data);
  const std::string dir = FreshDir("store-inc-v1");
  {
    Result<ArtifactStore> store = ArtifactStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value().PutArtifacts(key, *art).ok());
    for (const auto& [k, inc] : SampleIncumbents()) {
      store.value().PutIncumbents(k, inc);
    }
    ASSERT_TRUE(store.value().Commit().ok());
  }
  // Swap the committed incumbent file for its v1 encoding, and patch the
  // manifest's (size, checksum) record of it plus the manifest's own
  // header checksum, as a v1 writer would have committed it.
  const std::string inc_path = storage::JoinPath(dir, "incumbents.e3di");
  const std::string manifest_path = storage::JoinPath(dir, "MANIFEST");
  std::vector<uint8_t> v2 = storage::ReadFileBytes(inc_path).value();
  std::vector<uint8_t> v1 = VersionOneIncumbentFile(SampleIncumbents());
  auto size_and_sum = [](const std::vector<uint8_t>& file) {
    std::vector<uint8_t> rec(16);
    const uint64_t size = file.size();
    const uint64_t sum = Checksum64(file.data(), file.size());
    std::memcpy(rec.data(), &size, 8);
    std::memcpy(rec.data() + 8, &sum, 8);
    return rec;
  };
  const std::vector<uint8_t> old_rec = size_and_sum(v2);
  const std::vector<uint8_t> new_rec = size_and_sum(v1);
  std::vector<uint8_t> manifest = storage::ReadFileBytes(manifest_path).value();
  auto at = std::search(manifest.begin() + 20, manifest.end(),
                        old_rec.begin(), old_rec.end());
  ASSERT_NE(at, manifest.end());
  std::copy(new_rec.begin(), new_rec.end(), at);
  const uint64_t manifest_sum =
      Checksum64(manifest.data() + 20, manifest.size() - 20);
  std::memcpy(manifest.data() + 12, &manifest_sum, 8);
  ASSERT_TRUE(storage::WriteFileAtomic(inc_path, v1.data(), v1.size()).ok());
  ASSERT_TRUE(storage::WriteFileAtomic(manifest_path, manifest.data(),
                                       manifest.size())
                  .ok());

  Result<ArtifactStore> reopened = ArtifactStore::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().VerifyAll(), Status::OK());
  auto loaded = reopened.value().LoadAllArtifacts();
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 1u);
  EXPECT_EQ(loaded.value()[0].key, key);
  ExpectArtifactsBitIdentical(*art, *loaded.value()[0].artifacts);
  auto incumbents = reopened.value().LoadIncumbents();
  ASSERT_TRUE(incumbents.ok()) << incumbents.status().ToString();
  ExpectSampleIncumbents(incumbents.value());

  // The next commit rewrites the incumbent file in the current format.
  reopened.value().PutIncumbents("key-c", SampleIncumbents()[1].second);
  ASSERT_TRUE(reopened.value().Commit().ok());
  std::vector<uint8_t> rewritten = storage::ReadFileBytes(inc_path).value();
  uint32_t version = 0;
  std::memcpy(&version, rewritten.data() + 8, 4);
  EXPECT_EQ(version, storage::kIncumbentVersion);
  Result<ArtifactStore> again = ArtifactStore::Open(dir);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().LoadIncumbents().value().size(), 3u);
}

TEST(ArtifactStoreTest, VerifyAllAndLoadRejectDamage) {
  SyntheticDataset data = MakeData(32);
  auto [key, art] = BuildArtifacts(data);
  const std::string dir = FreshDir("store-damage");
  {
    Result<ArtifactStore> store = ArtifactStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value().PutArtifacts(key, *art).ok());
    ASSERT_TRUE(store.value().Commit().ok());
  }
  // Flip one byte in the middle of the committed snapshot file.
  std::string victim;
  Result<std::vector<std::string>> files = storage::ListDirectoryFiles(dir);
  ASSERT_TRUE(files.ok());
  for (const std::string& name : files.value()) {
    if (name.rfind("art-", 0) == 0) victim = storage::JoinPath(dir, name);
  }
  ASSERT_FALSE(victim.empty());
  std::vector<uint8_t> bytes = storage::ReadFileBytes(victim).value();
  bytes[bytes.size() / 2] ^= 0x01;
  ASSERT_TRUE(
      storage::WriteFileAtomic(victim, bytes.data(), bytes.size()).ok());

  Result<ArtifactStore> store = ArtifactStore::Open(dir);
  ASSERT_TRUE(store.ok());  // manifest itself is intact
  Status verify = store.value().VerifyAll();
  ASSERT_FALSE(verify.ok());
  EXPECT_EQ(verify.code(), StatusCode::kCorruption);
  auto loaded = store.value().LoadAllArtifacts();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

// --- crash consistency under injected faults --------------------------------

// The acceptance sweep: 100 seeds × p=0.3 faults armed on every storage
// crash window. Whatever subset of writes/commits survives, a reopened
// (fault-free) store must verify clean and serve only bit-identical
// blocks — a torn or unpublished state must roll back to the previous
// commit, never surface.
TEST(CrashConsistencyTest, HundredSeedFaultSweepNeverServesTornState) {
  if (!kFaultInjectionEnabled) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  SyntheticDataset data1 = MakeData(41);
  SyntheticDataset data2 = MakeData(42);
  auto [key1, art1] = BuildArtifacts(data1);
  auto [key2, art2] = BuildArtifacts(data2);
  ASSERT_NE(key1, key2);

  for (uint64_t seed = 0; seed < 100; ++seed) {
    const std::string dir = FreshDir("crash-" + std::to_string(seed));
    {
      // First commit runs fault-free so every seed also exercises
      // "previous state must survive a faulty second commit".
      Result<ArtifactStore> store = ArtifactStore::Open(dir);
      ASSERT_TRUE(store.ok());
      ASSERT_TRUE(store.value().PutArtifacts(key1, *art1).ok());
      ASSERT_TRUE(store.value().Commit().ok());
    }
    ASSERT_TRUE(FaultInjector::Instance()
                    .Configure("seed=" + std::to_string(seed) +
                               ";storage.*=p0.3")
                    .ok());
    bool second_committed = false;
    {
      Result<ArtifactStore> store = ArtifactStore::Open(dir);
      if (store.ok()) {
        SolverIncumbents inc;
        inc.objective = -2.0;
        inc.complete = true;
        inc.units.push_back({seed, -2.0});
        Status put = store.value().PutArtifacts(key2, *art2);
        store.value().PutIncumbents("inc", inc);
        Status commit = store.value().Commit();
        second_committed = put.ok() && commit.ok();
        // Every failure in the faulted pass must be a clean IO/corruption
        // status, never a crash or a silent OK.
        for (const Status& s : {put, commit}) {
          if (!s.ok()) {
            EXPECT_TRUE(s.code() == StatusCode::kIOError ||
                        s.code() == StatusCode::kCorruption)
                << s.ToString();
          }
        }
      }
    }
    FaultInjector::Instance().Disable();

    // Recovery: reopen fault-free. The store must verify clean and hold
    // either both commits or just the first — bit-identically.
    Result<ArtifactStore> store = ArtifactStore::Open(dir);
    ASSERT_TRUE(store.ok()) << "seed " << seed;
    EXPECT_EQ(store.value().VerifyAll(), Status::OK()) << "seed " << seed;
    // The commit log and the manifest must agree after recovery: open-
    // time reconciliation synthesizes any record a crash dropped between
    // the manifest rename and the log append, so an audit of the log
    // never under-reports the committed state.
    EXPECT_EQ(store.value().last_log_seq(), store.value().commit_seq())
        << "seed " << seed;
    auto loaded = store.value().LoadAllArtifacts();
    ASSERT_TRUE(loaded.ok()) << "seed " << seed;
    bool saw1 = false, saw2 = false;
    for (const DecodedArtifacts& d : loaded.value()) {
      if (d.key == key1) {
        saw1 = true;
        ExpectArtifactsBitIdentical(*art1, *d.artifacts);
      } else if (d.key == key2) {
        saw2 = true;
        ExpectArtifactsBitIdentical(*art2, *d.artifacts);
      } else {
        ADD_FAILURE() << "seed " << seed << ": unexpected key " << d.key;
      }
    }
    EXPECT_TRUE(saw1) << "seed " << seed << ": first commit lost";
    if (second_committed) {
      EXPECT_TRUE(saw2) << "seed " << seed << ": committed state lost";
    }
    // GC after a crash reclaims any torn tmp/orphan without touching
    // committed files.
    ASSERT_TRUE(store.value().GarbageCollect().ok());
    EXPECT_EQ(store.value().VerifyAll(), Status::OK()) << "seed " << seed;
  }
}

// --- warm service restart ---------------------------------------------------

ExplanationRequest MakeServiceRequest(const SyntheticDataset& data,
                                      DatabaseHandle h1, DatabaseHandle h2) {
  ExplanationRequest req;
  req.db1 = h1;
  req.db2 = h2;
  req.sql1 = data.sql1;
  req.sql2 = data.sql2;
  req.attr_matches = data.attr_matches;
  req.mapping_options.min_probability = 1e-4;
  req.calibration_oracle =
      MakeRowEntityOracle(data.row_entities1, data.row_entities2);
  req.config.num_threads = 1;
  // Small batches keep every solve unit provably optimal, so the run
  // records a warm-start incumbent (only complete runs record).
  req.config.batch_size = 25;
  return req;
}

void ExpectPipelineResultsBitIdentical(const PipelineResult& a,
                                       const PipelineResult& b) {
  EXPECT_EQ(a.answer1(), b.answer1());
  EXPECT_EQ(a.answer2(), b.answer2());
  ASSERT_EQ(a.initial_mapping().size(), b.initial_mapping().size());
  for (size_t k = 0; k < a.initial_mapping().size(); ++k) {
    EXPECT_EQ(a.initial_mapping()[k].t1, b.initial_mapping()[k].t1) << k;
    EXPECT_EQ(a.initial_mapping()[k].t2, b.initial_mapping()[k].t2) << k;
    EXPECT_EQ(a.initial_mapping()[k].p, b.initial_mapping()[k].p) << k;
  }
  EXPECT_EQ(a.core().explanations.delta, b.core().explanations.delta);
  EXPECT_EQ(a.core().explanations.log_probability,
            b.core().explanations.log_probability);
}

// The PR's acceptance proof: service A snapshots its warm state; a FRESH
// service B restores it, re-registers the same data, and answers its
// first repeated request bit-identically — warm cache hit, zero cold
// misses, warm-started solve, and the restored block is served by
// POINTER (mmap-backed, no full-artifact copy).
TEST(ServicePersistenceTest, WarmRestartAnswersBitIdenticallyFromDisk) {
  const std::string dir = FreshDir("warm-restart");
  SyntheticDataset data = MakeData(51);
  PipelineResult first;
  {
    Explain3DService a;
    DatabaseHandle h1 = a.RegisterDatabase("left", data.db1);
    DatabaseHandle h2 = a.RegisterDatabase("right", data.db2);
    TicketPtr t1 = a.Submit(MakeServiceRequest(data, h1, h2));
    ASSERT_TRUE(t1->Wait().ok());
    first = t1->Wait().value();
    ASSERT_GT(a.Stats().incumbent_entries, 0u);  // optimum recorded
    ASSERT_TRUE(a.SnapshotTo(dir).ok());
  }  // service A is gone; only the disk image remains

  Explain3DService b;
  ASSERT_TRUE(b.RestoreFrom(dir).ok());
  ServiceStats restored = b.Stats();
  EXPECT_EQ(restored.restored_entries, 1u);
  EXPECT_GT(restored.restored_incumbents, 0u);
  EXPECT_EQ(restored.cache_entries, 1u);

  // The restored block is mmap-backed: the interned columns borrow from
  // the mapping instead of owning copies.
  auto entries = b.cache().Entries();
  ASSERT_EQ(entries.size(), 1u);
  const ArtifactsPtr& restored_block = entries.front().second;
  EXPECT_NE(restored_block->storage_owner, nullptr);
  ASSERT_NE(restored_block->i1, nullptr);
  EXPECT_TRUE(restored_block->i1->borrowed());

  // Same CONTENT, fresh registration: the first request keys straight
  // into the restored entry — a warm hit, no cold miss, and the result
  // co-owns the restored block itself (pointer identity, no copy).
  DatabaseHandle h1 = b.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = b.RegisterDatabase("right", data.db2);
  TicketPtr t = b.Submit(MakeServiceRequest(data, h1, h2));
  ASSERT_TRUE(t->Wait().ok());
  ServiceStats warm = b.Stats();
  EXPECT_EQ(warm.warm_hits, 1u);
  EXPECT_EQ(warm.cold_misses, 0u);
  EXPECT_GT(warm.warm_start_hits, 0u);  // solve seeded from restored record
  EXPECT_EQ(t->Wait().value().artifacts().get(), restored_block.get());
  ExpectPipelineResultsBitIdentical(t->Wait().value(), first);
}

// The write-behind path: a service with persist_dir set persists its
// entries without any explicit snapshot call, and a restarted service
// over the same directory restores them at construction.
TEST(ServicePersistenceTest, WriteBehindPersistsAndRestoresAcrossRestart) {
  const std::string dir = FreshDir("write-behind");
  SyntheticDataset data = MakeData(52);
  ServiceOptions opts;
  opts.persist_dir = dir;
  opts.persist_interval_seconds = 0;  // drain via FlushPersistence below
  PipelineResult first;
  {
    Explain3DService a(opts);
    DatabaseHandle h1 = a.RegisterDatabase("left", data.db1);
    DatabaseHandle h2 = a.RegisterDatabase("right", data.db2);
    TicketPtr t = a.Submit(MakeServiceRequest(data, h1, h2));
    ASSERT_TRUE(t->Wait().ok());
    first = t->Wait().value();
    ASSERT_TRUE(a.FlushPersistence().ok());
    EXPECT_GT(a.Stats().persisted_entries, 0u);
    // A second flush with nothing new dirty writes nothing.
    ASSERT_TRUE(a.FlushPersistence().ok());
  }

  Explain3DService b(opts);  // restore_on_start defaults to true
  ServiceStats restored = b.Stats();
  EXPECT_EQ(restored.restored_entries, 1u);
  EXPECT_EQ(restored.persist_errors, 0u);
  DatabaseHandle h1 = b.RegisterDatabase("left", data.db1);
  DatabaseHandle h2 = b.RegisterDatabase("right", data.db2);
  TicketPtr t = b.Submit(MakeServiceRequest(data, h1, h2));
  ASSERT_TRUE(t->Wait().ok());
  EXPECT_EQ(b.Stats().warm_hits, 1u);
  EXPECT_EQ(b.Stats().cold_misses, 0u);
  ExpectPipelineResultsBitIdentical(t->Wait().value(), first);
}

}  // namespace
}  // namespace explain3d

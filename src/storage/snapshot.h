// Snapshot codec: one Stage1Artifacts block <-> one on-disk file.
//
// File layout (all integers little-endian):
//
//   +-----------------------------------------------------------+
//   | magic "E3DSNAP1" | version u32 | segment_count u32        |
//   | segment table: {id u32, pad u32, offset u64, length u64,  |
//   |                 checksum u64} x segment_count             |
//   | ...pad to 64...                                           |
//   | segment payloads, each offset 64-byte aligned             |
//   +-----------------------------------------------------------+
//
// Segment ids:
//   1        META — ByteWriter stream: cache key, answers, provenance
//            relations, canonical relations, token dictionary (tokens in
//            id order), candidate pairs, interned-relation flags.
//   10..19   i1's ten columnar arrays (matching/token_interning.h
//            InternedColumns order), raw element bytes.
//   20..29   i2's ten columnar arrays.
//
// The columnar segments are written verbatim from the live arrays and
// 64-byte aligned, so the loader can mmap the file and hand
// Span views straight into the mapping to the borrowing InternedRelation
// constructor — the token/offset/classification arrays (the bulk of an
// artifacts block) are verified in place and never copied. The
// META segment (answers, canonical tuples, dictionary strings) is
// deserialized normally; candidates are the one sizeable copied array.
//
// Integrity: every segment carries a Checksum64 in the table; DecodeTo
// verifies the header, every checksum, and the structural CSR invariants
// (monotone offsets, cross-array sizes, token ids < dictionary size)
// before constructing anything, so a truncated or bit-flipped file fails
// with Status::Corruption — never a crash or a silently wrong block.

#ifndef EXPLAIN3D_STORAGE_SNAPSHOT_H_
#define EXPLAIN3D_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/incumbents.h"
#include "core/matching_context.h"
#include "storage/io.h"

namespace explain3d {
namespace storage {

/// Current snapshot format version (rejected when newer than the build).
inline constexpr uint32_t kSnapshotVersion = 1;

/// Current incumbent file version. v2 dropped v1's per-unit decode-engine
/// byte; v1 files still decode (the byte is read and discarded).
inline constexpr uint32_t kIncumbentVersion = 2;

/// Serializes one artifacts block (with its cache key) to bytes in the
/// format above. The block must be complete (i1/i2 may be null only if
/// built without interning — flags record this).
std::vector<uint8_t> EncodeArtifacts(const std::string& key,
                                     const Stage1Artifacts& art);

/// One decoded snapshot entry: the cache key it was stored under and the
/// reconstructed immutable block. `artifacts->storage_owner` holds the
/// mapping the interned columns borrow.
struct DecodedArtifacts {
  std::string key;
  ArtifactsPtr artifacts;
};

/// Decodes a mapped snapshot file, verifying every checksum and the CSR
/// structure. On success the returned block's i1/i2 borrow their columns
/// from `file`, which is retained via storage_owner.
Result<DecodedArtifacts> DecodeArtifacts(std::shared_ptr<MmapFile> file);

/// Verifies header + all segment checksums of mapped bytes without
/// constructing anything (the `verify` CLI path; cheaper than a decode).
Status VerifySnapshotBytes(const uint8_t* data, size_t size);

/// Lists segment (id, length) pairs of a valid header (the `inspect` CLI
/// path). Fails with Corruption on a malformed header.
Result<std::vector<std::pair<uint32_t, uint64_t>>> ListSegments(
    const uint8_t* data, size_t size);

/// Serializes the incumbent store: a sequence of (key, SolverIncumbents)
/// records behind a magic + version + checksum header. Record layout
/// (v2): key string, objective f64, complete u8, unit count u32, then per
/// unit fingerprint u64 and objective f64.
std::vector<uint8_t> EncodeIncumbents(
    const std::vector<std::pair<std::string, SolverIncumbents>>& entries);

/// Decodes an incumbent file; full-buffer checksum verified first.
Result<std::vector<std::pair<std::string, SolverIncumbents>>>
DecodeIncumbents(const uint8_t* data, size_t size);

}  // namespace storage
}  // namespace explain3d

#endif  // EXPLAIN3D_STORAGE_SNAPSHOT_H_

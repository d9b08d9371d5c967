// Binary persistence for CompressedRep.
//
// The expensive parts of the structure — the delay-balanced tree and the
// heavy-pair dictionary — are written to a versioned binary file; the
// sorted indexes over the base relations are *not* stored (they are
// linear-size and rebuilt lazily on first use). Loading therefore needs
// the same adorned view and a database with the same content; the file
// stores the cover, tau, slack and a fingerprint of the relation sizes to
// catch obvious mismatches.
//
// Format (little-endian, version 5 — "CQCREP05"); the full field-by-field
// spec and the corruption-rejection guarantees live in
// docs/serialization.md:
//   header: magic | tau f64 | alpha f64 | cover count u32 + [f64...] |
//           num atoms u32 + per-atom relation content digest u64 |
//           mu u32 | vb_arity u32 | candidate count u64 |
//           block count u32 (= 15) | block directory [(offset u64,
//           count u64) x 15]
//   blocks: flat SoA arrays, each 64-byte-aligned in the file (padding
//           zero-filled; empty blocks store offset 0), in fixed order:
//           tree beta pool u64, lefts i32, rights i32, costs f32,
//           levels u16, leaf flags u8; dictionary pool widths u8, packed
//           pool words u64 (the in-memory PackedTuplePool layout,
//           trailing pad word included), CSR node offsets u32, entry
//           valuation ids u32 (raw, strictly ascending within a node
//           row), entry bits u8; aggregate annotations (v05, all four
//           empty when the rep was built without them): tree per-node
//           counts u64 + ring cells u64 (3*mu per node: sums|mins|maxs),
//           dictionary per-entry counts u64 + ring cells u64 (3*mu per
//           entry).
//
// One loader: LoadCompressedRep opens the file as a RepFile
// (core/rep_file.h), validates the header and block directory, and BORROWS
// every payload block straight out of the file's bytes (util/col_store.h).
// The mode only says where those bytes live:
//   * RepFile::Mode::kRead — read into a 64-byte-aligned heap buffer:
//     O(file bytes) open, no residual dependency on the file.
//   * RepFile::Mode::kMap — mapped read-only: open is O(header + tree
//     nodes + dictionary entries) regardless of pool size and the OS pages
//     candidate data in on demand.
// Either way the returned rep keeps its RepFile alive for its lifetime,
// stats().mapped_bytes counts the borrowed bytes, and the dictionary's id
// table is built lazily on the first FindValuation.
#ifndef CQC_CORE_SERIALIZATION_H_
#define CQC_CORE_SERIALIZATION_H_

#include <memory>
#include <string>

#include "core/compressed_rep.h"
#include "core/rep_file.h"
#include "util/status.h"

namespace cqc {

/// Writes the structure to `path`.
Status SaveCompressedRep(const CompressedRep& rep, const std::string& path);

/// Reconstructs a structure previously saved for the same view over the
/// same data, backed by `path` opened in `mode`. Fails on magic/version/
/// shape mismatches and on any corrupt block.
Result<std::unique_ptr<CompressedRep>> LoadCompressedRep(
    const AdornedView& view, const Database& db, const std::string& path,
    const Database* aux_db = nullptr,
    RepFile::Mode mode = RepFile::Mode::kRead);

}  // namespace cqc

#endif  // CQC_CORE_SERIALIZATION_H_

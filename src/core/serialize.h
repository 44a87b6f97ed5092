// Binary serialization of the compressed formats.
//
// The paper's deployment model is compress-once-offline, decode-every-
// iteration-online; serialization completes it: a matrix is compressed on
// any host and written as a .bro file. Loading one yields canonical CSR,
// from which a plan builds its own format (engine::SpmvPlan). The encoding
// is a tagged little-endian stream with a magic/version header; malformed
// input throws std::runtime_error.
//
// read_bro_to_csr is the one reader. It parses with one bounds-checked
// cursor (util/bytes.h's ByteReader) over the stream bytes, leaving
// arrays where they lie; the std::istream overload reads the stream and
// parses those bytes. Element counts are checked against the bytes left
// before they size anything, so a corrupt count cannot ask for more memory
// than the stream could fill.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>

#include "core/bro_ans.h"
#include "core/bro_bcsr.h"
#include "core/bro_coo.h"
#include "core/bro_csr.h"
#include "core/bro_ell.h"
#include "core/bro_hyb.h"
#include "core/matrix.h"

namespace bro::core {

void write_bro_ell(std::ostream& out, const BroEll& m);
void write_bro_ans(std::ostream& out, const BroAns& m);
void write_bro_coo(std::ostream& out, const BroCoo& m);
void write_bro_hyb(std::ostream& out, const BroHyb& m);
void write_bro_csr(std::ostream& out, const BroCsr& m);
void write_bro_bcsr(std::ostream& out, const BroBcsr& m);

/// Decompress whichever serialized format `bytes` holds back to canonical
/// CSR, in one pass: rows are decoded straight into the CSR arrays (BRO-HYB
/// row r is ELL row r followed by the COO entries of row r), with no padded
/// ELL, intermediate COO or sort in between, and value arrays are read in
/// place. A row whose entries arrive unsorted or with duplicate columns
/// (only a hand-built stream has one) is canonicalized like
/// sparse::Coo::canonicalize does. This is the ONE tag-dispatch site:
/// callers that accept arbitrary .bro payloads (CLI `spmv <file.bro>`, net
/// uploads) route through it instead of switching on formats themselves, so
/// a new tag lands in every consumer automatically. Reports the format via
/// `fmt` when non-null. `bytes` must hold exactly one object; malformed,
/// truncated or trailing bytes throw std::runtime_error.
sparse::Csr read_bro_to_csr(std::span<const std::uint8_t> bytes,
                            Format* fmt = nullptr);

/// The same from a stream positioned at the header.
sparse::Csr read_bro_to_csr(std::istream& in, Format* fmt = nullptr);

} // namespace bro::core

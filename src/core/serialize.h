// Binary serialization of the compressed formats.
//
// The paper's deployment model is compress-once-offline, decode-every-
// iteration-online; serialization completes it: a matrix is compressed on
// any host, written as a .bro file, and loaded directly into SpMV-ready form
// without recompression. The encoding is a tagged little-endian stream with
// a magic/version header; malformed input throws std::runtime_error.
//
// Every reader parses with one bounds-checked cursor (util/bytes.h's
// ByteReader) over the stream bytes; the std::istream entry points read the
// stream and parse those bytes. Element counts are checked against the
// bytes left before they size anything, so a corrupt count cannot ask for
// more memory than the stream could fill.
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

/// Read a stream's header and report which format it holds, so callers can
/// dispatch to the matching read_* function — a .bro file carries whichever
/// format `compress --format` wrote, not necessarily BRO-HYB. Validates
/// magic/version/tag (throws on mismatch) and leaves the stream positioned
/// after the header; seek back to the start before calling read_*.
Format peek_bro_format(std::istream& in);

// The read_* functions leave a seekable stream positioned just after the
// object they read (a non-seekable one is consumed to its end).

void write_bro_ell(std::ostream& out, const BroEll& m);
BroEll read_bro_ell(std::istream& in);

void write_bro_ans(std::ostream& out, const BroAns& m);
BroAns read_bro_ans(std::istream& in);

void write_bro_coo(std::ostream& out, const BroCoo& m);
BroCoo read_bro_coo(std::istream& in);

void write_bro_hyb(std::ostream& out, const BroHyb& m);
BroHyb read_bro_hyb(std::istream& in);

void write_bro_csr(std::ostream& out, const BroCsr& m);
BroCsr read_bro_csr(std::istream& in);

void write_bro_bcsr(std::ostream& out, const BroBcsr& m);
BroBcsr read_bro_bcsr(std::istream& in);

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

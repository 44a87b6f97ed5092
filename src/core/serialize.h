// Binary serialization of the compressed formats.
//
// The paper's deployment model is compress-once-offline, decode-every-
// iteration-online; serialization completes it: a matrix is compressed on
// any host and written as a .bro file. Loading one yields canonical CSR,
// from which a plan builds its own format (engine::SpmvPlan). The encoding
// is a tagged little-endian stream with a magic/version header; malformed
// input throws std::runtime_error.
//
// BroReader is the one reader, and it is push-driven: feed() hands it the
// stream's bytes in any chunking as they arrive, and it keeps only what a
// decode needs whole (the index sections). The value arrays of the
// ELL-style bodies are written into the output CSR as they arrive and are
// never held. read_bro_to_csr's two overloads and the network upload path
// all feed it. Element counts are checked against the bytes the stream may
// still hold before they size anything, so a corrupt count cannot ask for
// more memory than the stream could fill.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
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

/// Decompresses whichever serialized format a stream holds back to
/// canonical CSR, from bytes fed in order as they arrive. This is the ONE
/// tag-dispatch site: callers that accept arbitrary .bro payloads (CLI
/// `spmv <file.bro>`, net uploads) route through it instead of switching on
/// formats themselves, so a new tag lands in every consumer automatically.
///
/// Rows are decoded straight into the CSR arrays (BRO-HYB row r is ELL row
/// r followed by the COO entries of row r), with no padded ELL,
/// intermediate COO or sort in between. A row whose entries arrive unsorted
/// or with duplicate columns (only a hand-built stream has one) is
/// canonicalized like sparse::Coo::canonicalize does. The CSR does not
/// depend on how the bytes were chunked or on the thread count. Malformed,
/// truncated or trailing bytes throw std::runtime_error; after a throw,
/// every later call throws the same error.
class BroReader {
 public:
  /// `max_bytes` bounds the object: the stream holds at most that many
  /// bytes, and every count is checked against what is left of them.
  explicit BroReader(std::size_t max_bytes);
  ~BroReader();
  BroReader(BroReader&&) noexcept;
  BroReader& operator=(BroReader&&) noexcept;

  /// The next bytes of the stream. Bytes past the object's end throw,
  /// counting every byte up to `max_bytes` as trailing.
  void feed(std::span<const std::uint8_t> bytes);

  /// Bytes the reader takes before the object could end: 0 once it has
  /// ended (or failed), at least 1 before. A caller that feeds at most this
  /// much never reads past the object.
  std::size_t wanted() const;

  /// The decoded CSR (once), reporting the format via `fmt` when non-null.
  /// Throws when the object is incomplete.
  sparse::Csr finish(Format* fmt = nullptr);

 private:
  struct State;
  std::unique_ptr<State> s_;
};

/// One whole object: `bytes` must hold exactly one.
sparse::Csr read_bro_to_csr(std::span<const std::uint8_t> bytes,
                            Format* fmt = nullptr);

/// The same from a stream positioned at the header, left just after the
/// object when it is seekable (a non-seekable one is read to its end).
sparse::Csr read_bro_to_csr(std::istream& in, Format* fmt = nullptr);

} // namespace bro::core

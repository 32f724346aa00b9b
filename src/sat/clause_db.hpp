/// \file clause_db.hpp
/// \brief Arena-backed clause storage for the CDCL solver.
///
/// Clauses live in one contiguous `uint32_t` pool and are referenced by
/// `cref` offsets instead of heap pointers (MiniSat's RegionAllocator
/// lineage): allocation is a bump, deletion marks the slot dead and
/// counts it as waste, and a compacting GC copies the live clauses into
/// a fresh pool once the waste fraction crosses a threshold — leaving a
/// forwarding reference in the old header so every owner (watcher
/// lists, reasons, clause lists, the per-solve learnt log) can be
/// relocated in place.  The header also carries the per-clause LBD
/// ("glue", computed at learn time) and activity that rank learnt
/// clauses for `reduce_db`.
#pragma once

#include "sat/types.hpp"

#include <cassert>
#include <cstring>
#include <span>
#include <vector>

namespace stps::sat {

/// Clause reference: word offset of the clause header in the arena.
using cref = uint32_t;
inline constexpr cref cref_undef = ~cref{0};

class clause_db
{
public:
  /// Clause view over arena memory.  Header layout: word 0 packs the
  /// literal count with the learnt/removed/relocated flags, word 1 is
  /// the LBD (or, after relocation, the forwarding cref), word 2 the
  /// activity bits; the literals follow inline.  Never hold a `clause&`
  /// across an `alloc` (the pool may grow and move).
  struct clause
  {
    uint32_t header = 0;
    uint32_t lbd_or_forward = 0;
    uint32_t activity_bits = 0;

    static constexpr uint32_t flag_learnt = 1u;
    static constexpr uint32_t flag_removed = 2u;
    static constexpr uint32_t flag_relocated = 4u;
    static constexpr uint32_t size_shift = 3u;

    uint32_t size() const noexcept { return header >> size_shift; }
    bool learnt() const noexcept { return (header & flag_learnt) != 0u; }
    bool removed() const noexcept { return (header & flag_removed) != 0u; }
    bool relocated() const noexcept
    {
      return (header & flag_relocated) != 0u;
    }

    uint32_t lbd() const noexcept { return lbd_or_forward; }
    void set_lbd(uint32_t lbd) noexcept { lbd_or_forward = lbd; }

    float activity() const noexcept
    {
      float a;
      std::memcpy(&a, &activity_bits, sizeof(a));
      return a;
    }
    void set_activity(float a) noexcept
    {
      std::memcpy(&activity_bits, &a, sizeof(a));
    }

    lit* begin() noexcept { return reinterpret_cast<lit*>(this + 1); }
    const lit* begin() const noexcept
    {
      return reinterpret_cast<const lit*>(this + 1);
    }
    lit* end() noexcept { return begin() + size(); }
    const lit* end() const noexcept { return begin() + size(); }
    lit& operator[](std::size_t i) noexcept { return begin()[i]; }
    lit operator[](std::size_t i) const noexcept { return begin()[i]; }
  };

  static constexpr uint32_t header_words = 3;

  cref alloc(std::span<const lit> lits, bool learnt, uint32_t lbd);

  clause& deref(cref cr) noexcept
  {
    assert(cr + header_words <= mem_.size());
    return *reinterpret_cast<clause*>(mem_.data() + cr);
  }
  const clause& deref(cref cr) const noexcept
  {
    assert(cr + header_words <= mem_.size());
    return *reinterpret_cast<const clause*>(mem_.data() + cr);
  }

  /// Marks the clause dead.  The owner must have detached it first; the
  /// memory is reclaimed by the next garbage collection.
  void free_clause(cref cr) noexcept;

  bool want_gc() const noexcept
  {
    return wasted_ != 0u && wasted_ * 5u > mem_.size();
  }

  /// \name Compacting GC
  /// Between `begin_gc` and `end_gc` the owner calls `reloc` on every
  /// live reference it holds; each clause moves on its first visit and
  /// forwards later ones.  References to removed clauses must be
  /// dropped, never relocated.
  /// \{
  void begin_gc();
  void reloc(cref& cr);
  void end_gc();
  /// \}

  std::size_t wasted() const noexcept { return wasted_; }
  std::size_t used_words() const noexcept { return mem_.size(); }

private:
  std::vector<uint32_t> mem_;
  std::vector<uint32_t> to_; ///< GC target pool
  std::size_t wasted_ = 0;
};

} // namespace stps::sat

#include "sim/signature_store.hpp"

#include <algorithm>
#include <stdexcept>

namespace stps::sim {

void signature_store::reset(std::size_t num_nodes, std::size_t num_words)
{
  num_nodes_ = num_nodes;
  num_words_ = num_words;
  stride_ = num_words;
  data_.assign(num_nodes * stride_, 0u);
  tail_.clear();
  first_live_ = 0;
  tail_freed_ = 0;
  base_first_ = 0;
  peak_bytes_ = std::max(peak_bytes_, live_bytes());
}

void signature_store::assign_row(std::size_t n,
                                 std::span<const uint64_t> values)
{
  assert(num_words_ == stride_ && "assign_row(): store has tail words");
  assert(base_first_ == 0u && "assign_row(): base arena was trimmed");
  if (values.size() != num_words_) {
    throw std::invalid_argument{"signature_store: row width mismatch"};
  }
  std::copy(values.begin(), values.end(), data_.data() + n * stride_);
}

void signature_store::fill_row(std::size_t n, uint64_t value)
{
  assert(num_words_ == stride_ && "fill_row(): store has tail words");
  assert(base_first_ == 0u && "fill_row(): base arena was trimmed");
  uint64_t* p = data_.data() + n * stride_;
  std::fill(p, p + num_words_, value);
}

void signature_store::append_word()
{
  // Word-major tail block: the node-major base is never repacked, and
  // the appended word's bits are contiguous across nodes.
  tail_.emplace_back(num_nodes_, 0u);
  ++num_words_;
  peak_bytes_ = std::max(peak_bytes_, live_bytes());
}

void signature_store::append_trimmed_word()
{
  assert(first_live_ == num_words_ &&
         "append_trimmed_word(): store already has live words");
  assert(num_words_ >= stride_ &&
         "append_trimmed_word(): base words still pending");
  std::vector<uint64_t>{}.swap(data_);
  base_first_ = stride_;
  tail_.emplace_back(); // empty block: reads yield 0, never backed
  ++tail_freed_;
  ++num_words_;
  first_live_ = num_words_;
}

void signature_store::mask_tail(uint64_t num_patterns)
{
  if (num_words_ == 0u) {
    return;
  }
  const uint64_t mask = tail_mask(num_patterns);
  if (mask == ~uint64_t{0}) {
    return;
  }
  if (num_words_ > stride_) {
    for (uint64_t& w : tail_.back()) { // empty when the word was trimmed
      w &= mask;
    }
    return;
  }
  if (base_first_ == stride_) {
    return; // every base word (including the last) was trimmed
  }
  const std::size_t row_words = stride_ - base_first_;
  uint64_t* last = data_.data() + row_words - 1u;
  for (std::size_t n = 0; n < num_nodes_; ++n, last += row_words) {
    *last &= mask;
  }
}

void signature_store::trim_words(std::size_t first_live)
{
  first_live = std::min(first_live, num_words_);
  if (first_live <= first_live_) {
    return;
  }
  first_live_ = first_live;
  const std::size_t base_live = std::min(first_live, stride_);
  if (base_live > base_first_) {
    // Absorbed base words: keep only the live ones (none once every
    // base word is absorbed) in a fresh, smaller node-major arena.
    const std::size_t keep = stride_ - base_live;
    std::vector<uint64_t> packed(num_nodes_ * keep);
    for (std::size_t n = 0; n < num_nodes_ && keep != 0u; ++n) {
      const uint64_t* from = data_.data() + base_index(n, base_live);
      std::copy(from, from + keep, packed.data() + n * keep);
    }
    data_.swap(packed);
    base_first_ = base_live;
  }
  while (tail_freed_ < tail_.size() &&
         stride_ + tail_freed_ < first_live) {
    std::vector<uint64_t>{}.swap(tail_[tail_freed_]);
    ++tail_freed_;
  }
}

} // namespace stps::sim

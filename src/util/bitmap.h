// Dynamic bitset tuned for block-map work: set algebra (the Table 1
// incremental computation is literally `B.AndNot(A)`), fast scans for the
// write allocator, and serialization for the dump inode maps.
#ifndef BKUP_UTIL_BITMAP_H_
#define BKUP_UTIL_BITMAP_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace bkup {

class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(size_t num_bits) { Resize(num_bits); }

  size_t size() const { return num_bits_; }
  bool empty() const { return num_bits_ == 0; }

  // Grows or shrinks; new bits are zero.
  void Resize(size_t num_bits);

  bool Test(size_t bit) const {
    return (words_[bit >> 6] >> (bit & 63)) & 1;
  }
  void Set(size_t bit) { words_[bit >> 6] |= (1ull << (bit & 63)); }
  void Clear(size_t bit) { words_[bit >> 6] &= ~(1ull << (bit & 63)); }
  void SetAll();

  // Number of set bits.
  size_t CountOnes() const;

  // Number of set bits in [first, first + count).
  size_t CountOnesInRange(size_t first, size_t count) const;

  // Index of the first set/clear bit at or after `from`, or npos.
  static constexpr size_t npos = static_cast<size_t>(-1);
  size_t FindFirstSet(size_t from = 0) const;
  size_t FindFirstClear(size_t from = 0) const;

  // In-place set algebra. Operand must be the same size.
  void OrWith(const Bitmap& other);
  void AndWith(const Bitmap& other);
  void AndNotWith(const Bitmap& other);  // this &= ~other
  void XorWith(const Bitmap& other);

  // out-of-place: a & ~b — "blocks in a that are not in b" (Table 1).
  static Bitmap Difference(const Bitmap& a, const Bitmap& b);

  bool operator==(const Bitmap& other) const;

  // True if no bit is set in both.
  bool DisjointWith(const Bitmap& other) const;

  // Invoke fn(index) for every set bit, ascending.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(w * 64 + static_cast<size_t>(bit));
        word &= word - 1;
      }
    }
  }

  // Serialized form: raw little-endian words covering size() bits, rounded up
  // to whole bytes. Used by the dump format's inode maps.
  std::vector<uint8_t> Serialize() const;
  static Bitmap Deserialize(std::span<const uint8_t> bytes, size_t num_bits);

  // Direct word access for checksumming.
  std::span<const uint64_t> words() const { return words_; }

 private:
  // Zero any bits beyond num_bits_ in the last word so CountOnes and
  // comparisons stay exact.
  void TrimTail();

  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace bkup

#endif  // BKUP_UTIL_BITMAP_H_

#include "src/util/bitmap.h"

#include <algorithm>
#include <cassert>

namespace bkup {

void Bitmap::Resize(size_t num_bits) {
  num_bits_ = num_bits;
  words_.assign((num_bits + 63) / 64, 0);
}

void Bitmap::SetAll() {
  std::fill(words_.begin(), words_.end(), ~0ull);
  TrimTail();
}

void Bitmap::TrimTail() {
  const size_t tail = num_bits_ & 63;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (1ull << tail) - 1;
  }
}

size_t Bitmap::CountOnes() const {
  size_t n = 0;
  for (uint64_t w : words_) {
    n += static_cast<size_t>(__builtin_popcountll(w));
  }
  return n;
}

size_t Bitmap::CountOnesInRange(size_t first, size_t count) const {
  assert(first + count <= num_bits_);
  size_t n = 0;
  size_t i = first;
  const size_t end = first + count;
  // Leading partial word.
  while (i < end && (i & 63) != 0) {
    n += Test(i) ? 1 : 0;
    ++i;
  }
  // Whole words.
  while (i + 64 <= end) {
    n += static_cast<size_t>(__builtin_popcountll(words_[i >> 6]));
    i += 64;
  }
  // Trailing partial word.
  while (i < end) {
    n += Test(i) ? 1 : 0;
    ++i;
  }
  return n;
}

size_t Bitmap::FindFirstSet(size_t from) const {
  if (from >= num_bits_) {
    return npos;
  }
  size_t w = from >> 6;
  uint64_t word = words_[w] & (~0ull << (from & 63));
  while (true) {
    if (word != 0) {
      const size_t bit = w * 64 + static_cast<size_t>(__builtin_ctzll(word));
      return bit < num_bits_ ? bit : npos;
    }
    if (++w >= words_.size()) {
      return npos;
    }
    word = words_[w];
  }
}

size_t Bitmap::FindFirstClear(size_t from) const {
  if (from >= num_bits_) {
    return npos;
  }
  size_t w = from >> 6;
  uint64_t word = ~words_[w] & (~0ull << (from & 63));
  while (true) {
    if (word != 0) {
      const size_t bit = w * 64 + static_cast<size_t>(__builtin_ctzll(word));
      return bit < num_bits_ ? bit : npos;
    }
    if (++w >= words_.size()) {
      return npos;
    }
    word = ~words_[w];
  }
}

void Bitmap::OrWith(const Bitmap& other) {
  assert(num_bits_ == other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) {
    words_[i] |= other.words_[i];
  }
}

void Bitmap::AndWith(const Bitmap& other) {
  assert(num_bits_ == other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) {
    words_[i] &= other.words_[i];
  }
}

void Bitmap::AndNotWith(const Bitmap& other) {
  assert(num_bits_ == other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) {
    words_[i] &= ~other.words_[i];
  }
}

void Bitmap::XorWith(const Bitmap& other) {
  assert(num_bits_ == other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) {
    words_[i] ^= other.words_[i];
  }
}

Bitmap Bitmap::Difference(const Bitmap& a, const Bitmap& b) {
  Bitmap out = a;
  out.AndNotWith(b);
  return out;
}

bool Bitmap::operator==(const Bitmap& other) const {
  return num_bits_ == other.num_bits_ && words_ == other.words_;
}

bool Bitmap::DisjointWith(const Bitmap& other) const {
  assert(num_bits_ == other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & other.words_[i]) != 0) {
      return false;
    }
  }
  return true;
}

std::vector<uint8_t> Bitmap::Serialize() const {
  std::vector<uint8_t> out((num_bits_ + 7) / 8);
  for (size_t i = 0; i < out.size(); ++i) {
    const uint64_t word = words_[i >> 3];
    out[i] = static_cast<uint8_t>(word >> ((i & 7) * 8));
  }
  return out;
}

Bitmap Bitmap::Deserialize(std::span<const uint8_t> bytes, size_t num_bits) {
  Bitmap out(num_bits);
  const size_t nbytes = std::min(bytes.size(), (num_bits + 7) / 8);
  for (size_t i = 0; i < nbytes; ++i) {
    out.words_[i >> 3] |= static_cast<uint64_t>(bytes[i]) << ((i & 7) * 8);
  }
  out.TrimTail();
  return out;
}

}  // namespace bkup

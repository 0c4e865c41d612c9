// Replaces the global operator new with one that counts allocations, for
// suites that pin allocation budgets. Include it from exactly one file of
// a test binary (each binary is one translation unit).
//
// While `g_alloc.on` is set, every allocation adds to `calls` and `bytes`,
// and allocations of at most kMaxSize bytes are also histogrammed by size
// with the sequence number of each size's first allocation.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace fcc::test {

struct AllocCounter {
  static constexpr std::size_t kMaxSize = 4096;
  std::atomic<bool> on{false};
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
  std::uint64_t seq = 0;
  std::array<std::uint64_t, kMaxSize + 1> count{};
  std::array<std::uint64_t, kMaxSize + 1> first{};

  /// Clears every total and starts counting.
  void start() {
    calls = bytes = seq = 0;
    count.fill(0);
    on = true;
  }
  void stop() { on = false; }

  void note(std::size_t n) {
    ++calls;
    bytes += n;
    if (n > kMaxSize) return;
    if (count[n]++ == 0) first[n] = seq;
    ++seq;
  }
};

inline AllocCounter g_alloc;

}  // namespace fcc::test

void* operator new(std::size_t n) {
  if (fcc::test::g_alloc.on.load(std::memory_order_relaxed)) {
    fcc::test::g_alloc.note(n);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (fcc::test::g_alloc.on.load(std::memory_order_relaxed)) {
    fcc::test::g_alloc.note(n);
  }
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

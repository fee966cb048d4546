#include "alloc_counter.h"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

bool g_counting = false;
AllocCount g_totals;

void* Allocate(std::size_t size, std::size_t align) {
  if (g_counting) {
    ++g_totals.calls;
    g_totals.bytes += size;
  }
  if (size == 0) {
    size = 1;
  }
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    // aligned_alloc wants a size that is a multiple of the alignment.
    p = std::aligned_alloc(align, (size + align - 1) / align * align);
  }
  return p;
}

void* AllocateOrThrow(std::size_t size, std::size_t align) {
  void* p = Allocate(size, align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

AllocCount AllocTotals() { return g_totals; }

AllocWindow::AllocWindow() { g_counting = true; }
AllocWindow::~AllocWindow() { g_counting = false; }

}  // namespace perfbench

using perfbench::Allocate;
using perfbench::AllocateOrThrow;

void* operator new(std::size_t size) { return AllocateOrThrow(size, 0); }
void* operator new[](std::size_t size) { return AllocateOrThrow(size, 0); }
void* operator new(std::size_t size, std::align_val_t a) {
  return AllocateOrThrow(size, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t size, std::align_val_t a) {
  return AllocateOrThrow(size, static_cast<std::size_t>(a));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size, 0);
}
void* operator new(std::size_t size, std::align_val_t a, const std::nothrow_t&) noexcept {
  return Allocate(size, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t size, std::align_val_t a, const std::nothrow_t&) noexcept {
  return Allocate(size, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

#pragma once
// Bump-allocation arenas for the wave search's per-level transition records.
//
// The wave engine records every surviving DP transition between its two
// passes. With one std::vector per state that is one heap allocation (plus
// geometric capacity slack and allocator metadata) per state — millions of
// tiny allocations on RandWire-sized blocks. An Arena replaces them with
// pointer bumps into few large chunks: allocation is an add, the final spans
// are exactly sized (the only growing sequence is the chunk tail, so growth
// extends in place and shrink_to_fit returns the slack), and a whole level's
// records are reclaimed wholesale by reset() instead of element-by-element
// frees. Arenas are recycled through ArenaPool, which trims each returned
// arena to one standard chunk: a level that fits one chunk per worker
// allocates nothing, a bigger level allocates its extra chunks and frees
// them when it retires, and idle pooled memory stays at one chunk per
// arena however large past levels were.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

namespace ios {

/// A chunked bump allocator. Not thread-safe: each concurrent user leases
/// its own Arena (see ArenaPool). Allocations are never individually freed;
/// reset() reclaims everything at once while keeping the chunks for reuse.
class Arena {
 public:
  /// Default size of each backing chunk. Big enough that even RandWire-scale
  /// wave levels touch few chunks, small enough that idle pooled arenas are
  /// cheap to keep around.
  static constexpr std::size_t kDefaultChunkBytes = std::size_t{256} * 1024;

  /// Creates an empty arena; the first allocation reserves a chunk of
  /// `chunk_bytes` (or of the allocation's size, whichever is larger).
  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes < 64 ? 64 : chunk_bytes) {}

  Arena(const Arena&) = delete;             ///< not copyable (owns chunks)
  Arena& operator=(const Arena&) = delete;  ///< not copyable (owns chunks)

  /// Returns `bytes` bytes aligned to `align` (a power of two). The memory
  /// stays valid until reset() or destruction.
  void* allocate(std::size_t bytes, std::size_t align) {
    if (bytes == 0) bytes = 1;
    while (active_ < chunks_.size()) {
      Chunk& c = chunks_[active_];
      const std::uintptr_t base =
          reinterpret_cast<std::uintptr_t>(c.data.get()) + used_;
      const std::size_t pad = (align - base % align) % align;
      if (used_ + pad + bytes <= c.size) {
        used_ += pad + bytes;
        return c.data.get() + (used_ - bytes);
      }
      // Chunk exhausted: move on. The stranded tail is slack until reset().
      ++active_;
      used_ = 0;
    }
    const std::size_t want = bytes + align > chunk_bytes_ ? bytes + align
                                                          : chunk_bytes_;
    chunks_.push_back(
        Chunk{std::make_unique_for_overwrite<std::byte[]>(want), want});
    return allocate(bytes, align);
  }

  /// Typed array allocation (elements are NOT constructed; T must be
  /// trivially constructible/destructible to be usable this way).
  template <typename T>
  T* allocate_array(std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    return static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
  }

  /// Grows the most recent allocation in place: if `tail` (of `old_bytes`
  /// bytes) is exactly the last allocation of the active chunk and
  /// `new_bytes` still fits that chunk, the allocation is extended without
  /// moving and true is returned. Otherwise the arena is unchanged.
  bool try_extend(const void* tail, std::size_t old_bytes,
                  std::size_t new_bytes) {
    if (active_ >= chunks_.size()) return false;
    Chunk& c = chunks_[active_];
    const std::byte* p = static_cast<const std::byte*>(tail);
    if (p + old_bytes != c.data.get() + used_) return false;
    const std::size_t start = used_ - old_bytes;
    if (start + new_bytes > c.size) return false;
    used_ = start + new_bytes;
    return true;
  }

  /// Returns the unused tail of the most recent allocation to the arena
  /// (the shrink counterpart of try_extend). No-op if `tail` is not the
  /// active chunk's last allocation.
  void shrink_tail(const void* tail, std::size_t old_bytes,
                   std::size_t new_bytes) {
    if (new_bytes > old_bytes || active_ >= chunks_.size()) return;
    Chunk& c = chunks_[active_];
    const std::byte* p = static_cast<const std::byte*>(tail);
    if (p + old_bytes != c.data.get() + used_) return;
    used_ -= old_bytes - new_bytes;
  }

  /// Invalidates every allocation and rewinds to the first chunk. Chunks
  /// are kept, so a reset arena reallocates without touching the heap.
  void reset() {
    active_ = 0;
    used_ = 0;
  }

  /// reset(), then frees every chunk but one of the standard size, so an
  /// arena kept for reuse holds at most one chunk whatever it held before.
  void trim() {
    reset();
    const auto standard =
        std::find_if(chunks_.begin(), chunks_.end(),
                     [this](const Chunk& c) { return c.size == chunk_bytes_; });
    if (standard == chunks_.end()) {
      chunks_.clear();
      return;
    }
    std::swap(*standard, chunks_.front());
    chunks_.resize(1);
  }

  /// Total bytes handed out since the last reset (including alignment
  /// padding and stranded chunk tails).
  std::size_t bytes_used() const {
    std::size_t total = used_;
    for (std::size_t i = 0; i < active_ && i < chunks_.size(); ++i) {
      total += chunks_[i].size;
    }
    return total;
  }

  /// Total bytes of backing chunks currently owned.
  std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;  ///< index of the chunk being bumped
  std::size_t used_ = 0;    ///< bytes consumed in the active chunk
};

/// A growable array of trivially copyable elements backed by an Arena.
/// Growth prefers extending in place (possible whenever this vector made the
/// arena's most recent allocation — the wave engine's per-state fill pattern
/// guarantees it), falling back to allocate-and-memcpy; the abandoned copy
/// is reclaimed by the arena's next reset(). shrink_to_fit() returns the
/// capacity slack so back-to-back vectors pack the chunk exactly.
template <typename T>
class ArenaVec {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  /// An empty vector whose storage will come from `arena` (which must
  /// outlive it).
  explicit ArenaVec(Arena& arena) : arena_(&arena) {}

  /// Appends a copy of `v`, growing the arena span as needed.
  void push_back(const T& v) {
    if (size_ == capacity_) grow();
    data_[size_++] = v;
  }

  /// Gives the unused capacity back to the arena when this vector is the
  /// arena's most recent allocation.
  void shrink_to_fit() {
    if (size_ == capacity_) return;
    arena_->shrink_tail(data_, capacity_ * sizeof(T), size_ * sizeof(T));
    capacity_ = size_;
  }

  const T* data() const { return data_; }          ///< first element
  std::uint32_t size() const { return size_; }     ///< element count
  bool empty() const { return size_ == 0; }        ///< size() == 0
  /// Unchecked element access.
  const T& operator[](std::uint32_t i) const { return data_[i]; }
  const T* begin() const { return data_; }         ///< range begin
  const T* end() const { return data_ + size_; }   ///< range end

 private:
  void grow() {
    const std::uint32_t new_cap = capacity_ == 0 ? 8 : capacity_ * 2;
    if (data_ != nullptr &&
        arena_->try_extend(data_, capacity_ * sizeof(T),
                           std::size_t{new_cap} * sizeof(T))) {
      capacity_ = new_cap;
      return;
    }
    T* nd = arena_->allocate_array<T>(new_cap);
    if (size_ != 0) std::memcpy(nd, data_, size_ * sizeof(T));
    data_ = nd;
    capacity_ = new_cap;
  }

  Arena* arena_;
  T* data_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = 0;
};

/// A thread-safe pool of reusable arenas. Worker threads lease an arena for
/// one wave level's records and return it (trimmed to one chunk) when the
/// level is consumed, so concurrent searches recycle a bounded set of chunk
/// allocations instead of growing one arena per search.
class ArenaPool {
 public:
  /// Exclusive RAII handle to a pooled arena; returns it (reset) on
  /// destruction. Movable, not copyable.
  class Lease {
   public:
    Lease() = default;  ///< empty handle (operator bool() is false)
    /// Wraps `arena`, to be returned to `pool` on destruction.
    Lease(ArenaPool* pool, std::unique_ptr<Arena> arena)
        : pool_(pool), arena_(std::move(arena)) {}
    Lease(Lease&&) = default;  ///< transfers ownership; the source empties
    /// Transfers ownership, returning any currently held arena first.
    Lease& operator=(Lease&& o) {
      release();
      pool_ = o.pool_;
      arena_ = std::move(o.arena_);
      o.pool_ = nullptr;
      return *this;
    }
    ~Lease() { release(); }  ///< returns the arena (trimmed) to the pool

    Arena& operator*() const { return *arena_; }    ///< the leased arena
    Arena* operator->() const { return arena_.get(); }  ///< the leased arena
    /// True when this lease holds an arena.
    explicit operator bool() const { return arena_ != nullptr; }

    /// Returns the arena, trimmed, to the pool early (idempotent).
    void release() {
      if (arena_ != nullptr && pool_ != nullptr) {
        arena_->trim();
        pool_->put(std::move(arena_));
      }
      arena_.reset();
      pool_ = nullptr;
    }

   private:
    ArenaPool* pool_ = nullptr;
    std::unique_ptr<Arena> arena_;
  };

  /// Leases a pooled arena, creating one if the pool is empty.
  Lease acquire() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        std::unique_ptr<Arena> a = std::move(free_.back());
        free_.pop_back();
        return Lease{this, std::move(a)};
      }
    }
    return Lease{this, std::make_unique<Arena>()};
  }

  /// Arenas currently idle in the pool.
  std::size_t idle() const {
    std::lock_guard<std::mutex> lock(mu_);
    return free_.size();
  }

 private:
  void put(std::unique_ptr<Arena> a) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(a));
  }

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Arena>> free_;
};

/// The process-wide arena pool shared by every wave search (like
/// shared_thread_pool(): one bounded set of chunks for the whole process).
inline ArenaPool& shared_arena_pool() {
  static ArenaPool pool;
  return pool;
}

}  // namespace ios

#pragma once

#include <utility>

#include "alloc/object.hpp"
#include "reclaim/gauge.hpp"
#include "tm/txsets.hpp"
#include "tm/word.hpp"

namespace hohtm::tm {

/// Transactional allocation mixin shared by every backend's Tx type.
///
///  - `alloc<T>(args...)` constructs T now; if the transaction aborts, the
///    object is destroyed and its memory released (the allocation "never
///    happened").
///  - `dealloc(p)` defers destruction to commit time. Concurrent backends
///    run the deferred frees only after their quiescence fence, so the
///    free is precise (it happens as part of the committing operation, not
///    epochs later) yet can never be observed by a doomed reader.
///
/// Per the paper's evaluation note that performance improves when
/// allocation happens outside transactions, the mixin keeps the actual
/// `new` outside any TM instrumentation — only the rollback bookkeeping is
/// transactional.
class TxLifecycle {
 public:
  template <class T, class... Args>
  T* alloc(Args&&... args) {
    T* p = hohtm::alloc::create<T>(std::forward<Args>(args)...);
    reclaim::Gauge::on_alloc();
    life_.on_abort(p, &destroy_thunk<T>);
    return p;
  }

  /// `alloc` with `extra` trailing payload bytes in the same block (see
  /// alloc::create_flex). Same rollback contract: the whole block — struct
  /// and tail — vanishes if the transaction aborts.
  template <class T, class... Args>
  T* alloc_flex(std::size_t extra, Args&&... args) {
    T* p = hohtm::alloc::create_flex<T>(extra, std::forward<Args>(args)...);
    reclaim::Gauge::on_alloc();
    life_.on_abort(p, &destroy_thunk<T>);
    return p;
  }

  template <class T>
  void dealloc(T* p) {
    if (p != nullptr) life_.on_commit(const_cast<std::remove_const_t<T>*>(p), &destroy_thunk<std::remove_const_t<T>>);
  }

  /// Thread-owned words: locations that only the calling thread ever
  /// reads or writes (a reservation's per-thread cell). The access is a
  /// plain one in place, with no read-set or write-set entry and no sched
  /// point; the old value goes to the lifecycle undo log, so an abort
  /// restores it. A transaction whose only writes are owned words is
  /// read-only to the backend and commits without publishing anything.
  /// Never use these on a word another thread can touch: no conflict on
  /// it is ever detected (tools/hohtm_lint.py rule `owned-word`). Nor mix
  /// them with tx.read/tx.write on the same word: a lazy backend's
  /// write-back would overwrite the in-place store at commit.
  template <TxWord T>
  T read_owned(const T& loc) const noexcept {
    return loc;
  }

  template <TxWord T>
  void write_owned(T& loc, T val) {
    life_.on_owned_write(&loc, erase_word(loc));
    loc = val;
  }

 protected:
  template <class T>
  static void destroy_thunk(void* p) noexcept {
    hohtm::alloc::destroy(static_cast<T*>(p));
    reclaim::Gauge::on_free();
  }

  LifecycleLog life_;
};

}  // namespace hohtm::tm

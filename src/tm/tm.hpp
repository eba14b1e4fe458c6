#pragma once

/// Umbrella header for the hohtm transactional-memory substrate.
///
/// Four backends share one static-polymorphic interface:
///
///   using TM = hohtm::tm::Norec;                  // pick a backend
///   int v = TM::atomically([&](TM::Tx& tx) {      // run a transaction
///     int x = tx.read(shared.field);              // word read
///     tx.write(shared.field, x + 1);              // word write (buffered
///     Node* n = tx.alloc<Node>(args);             //  or undo-logged)
///     tx.dealloc(old);                            // freed at commit,
///     return x;                                   //  after quiescence
///   });
///
/// `tx.read_owned` / `tx.write_owned` access words only the calling
/// thread ever touches (reservation cells): in place, undo-logged, and
/// invisible to conflict detection (see TxLifecycle).
///
/// See DESIGN.md section 1.1 for the backend comparison and section 3 for
/// why deferred-free-at-commit plus quiescence reproduces the reclamation
/// guarantee the paper obtains from HTM's immediate aborts.

#include <concepts>

#include "tm/glock.hpp"
#include "tm/norec.hpp"
#include "tm/tl2.hpp"
#include "tm/tleager.hpp"
#include "tm/tml.hpp"

namespace hohtm::tm {

/// Compile-time contract every backend satisfies. Data structures and
/// reservation implementations are templated over a TMBackend.
template <class TM>
concept TMBackend = requires(typename TM::Tx& tx, int& loc, int val) {
  { tx.read(loc) } -> std::same_as<int>;
  { tx.write(loc, val) };
  { tx.read_owned(loc) } -> std::same_as<int>;
  { tx.write_owned(loc, val) };
  { tx.template alloc<int>(0) } -> std::same_as<int*>;
  { tx.dealloc(static_cast<int*>(nullptr)) };
  { TM::atomically([](typename TM::Tx&) {}) };
  { TM::name() } -> std::convertible_to<const char*>;
};

static_assert(TMBackend<GLock>);
static_assert(TMBackend<Tml>);
static_assert(TMBackend<Norec>);
static_assert(TMBackend<Tl2>);
static_assert(TMBackend<TlEager>);

}  // namespace hohtm::tm

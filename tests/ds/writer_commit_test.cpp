// Exact writer-commit counts for hand-over-hand operations. Reservation
// cells are thread-owned words, so a window boundary that only hands its
// reservation over (RR-V, MultiRR-V) commits as a reader; RR-XO/SO parks
// still write the shared OWN slot, but their op-final release does not.
// Single-threaded and unscattered, so every count is deterministic.
#include <gtest/gtest.h>

#include "ds/sll_hoh.hpp"
#include "ds/sll_move.hpp"
#include "tm/tm.hpp"

namespace hohtm::ds {
namespace {

constexpr long kNodes = 512;
constexpr int kWindow = 16;
// The list holds 0, 2, ..., kLast; a key past kLast walks every node.
constexpr long kLast = 2 * (kNodes - 1);
constexpr long kPastEnd = kLast + 1;
// SllHoh walks kWindow nodes past a window's start and parks the next
// one, so parks sit kWindow + 1 nodes apart starting at index kWindow: a
// walk over every node commits this many windows (31 for 512 / 16).
constexpr std::uint64_t kFarCommits = (kNodes - 1 - kWindow) / (kWindow + 1) + 2;

struct Delta {
  std::uint64_t commits;
  std::uint64_t writer_commits;
  std::uint64_t aborts;
};

template <class F>
Delta measure(F&& op) {
  const tm::StatCounters before = tm::Stats::mine();
  op();
  const tm::StatCounters after = tm::Stats::mine();
  return Delta{after.commits - before.commits,
               after.writer_commits - before.writer_commits,
               after.aborts - before.aborts};
}

template <class R, bool kParkWrites>
struct Case {
  using List = SllHoh<tm::Norec, R>;
  // Does a window boundary's reserve write a shared word (the OWN slot)?
  static constexpr bool park_writes = kParkWrites;
};

template <class TM>
using RrSo4 = rr::RrSo<TM, 4>;

using Cases = ::testing::Types<Case<rr::RrV<tm::Norec>, false>,
                               Case<rr::RrXo<tm::Norec>, true>,
                               Case<RrSo4<tm::Norec>, true>>;

template <class C>
class WriterCommitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Registration commits happen here, not in the measured ops.
    for (long i = 0; i < kNodes; ++i) ASSERT_TRUE(list.insert(2 * i));
  }

  // Writer commits a hand-over-hand op of `commits` transactions owes to
  // its window boundaries (one park per commit but the last).
  static std::uint64_t park_writers(const Delta& d) {
    return C::park_writes ? d.commits - 1 : 0;
  }

  typename C::List list{kWindow, /*scatter=*/false};
};

TYPED_TEST_SUITE(WriterCommitTest, Cases);

TYPED_TEST(WriterCommitTest, FarContainsCommitsWindowsWithoutWriters) {
  bool found = false;
  const Delta d = measure([&] { found = this->list.contains(kPastEnd); });
  EXPECT_FALSE(found);
  EXPECT_EQ(d.aborts, 0u);
  EXPECT_EQ(d.commits, kFarCommits);
  // RR-V: every window is read-only. XO/SO: the parks write OWN, the
  // op-final release adds none.
  EXPECT_EQ(d.writer_commits, this->park_writers(d));
}

TYPED_TEST(WriterCommitTest, NearContainsIsReadOnly) {
  const Delta d = measure([&] { EXPECT_TRUE(this->list.contains(4)); });
  EXPECT_EQ(d.commits, 1u);
  EXPECT_EQ(d.writer_commits, 0u);  // the release is an owned word
}

TYPED_TEST(WriterCommitTest, SuccessfulUpdateAddsExactlyOneWriter) {
  const Delta ins = measure([&] { EXPECT_TRUE(this->list.insert(kPastEnd)); });
  EXPECT_EQ(ins.aborts, 0u);
  EXPECT_GE(ins.commits, kFarCommits);
  EXPECT_EQ(ins.writer_commits, this->park_writers(ins) + 1);

  const Delta rem = measure([&] { EXPECT_TRUE(this->list.remove(kPastEnd)); });
  EXPECT_EQ(rem.aborts, 0u);
  EXPECT_GE(rem.commits, kFarCommits);
  EXPECT_EQ(rem.writer_commits, this->park_writers(rem) + 1);
}

TYPED_TEST(WriterCommitTest, FailedUpdateAddsNoWriter) {
  const Delta ins = measure([&] { EXPECT_FALSE(this->list.insert(kLast)); });
  EXPECT_EQ(ins.writer_commits, this->park_writers(ins));
  const Delta rem = measure([&] { EXPECT_FALSE(this->list.remove(kPastEnd)); });
  EXPECT_EQ(rem.writer_commits, this->park_writers(rem));
}

// SllMove parks its hunts on MultiRR-V entries: both hunts' windows are
// read-only, and the move itself is the one writer.
class SllMoveWriterCommitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (long i = 0; i < kNodes; ++i) ASSERT_TRUE(list.insert(2 * i));
  }
  SllMove<tm::Norec> list{kWindow};
};

TEST_F(SllMoveWriterCommitTest, MoveHuntsAreReadOnly) {
  const Delta d =
      measure([&] { EXPECT_TRUE(list.move(kLast, kPastEnd)); });
  EXPECT_EQ(d.aborts, 0u);
  EXPECT_GE(d.commits, 2 * kFarCommits);  // two far hunts
  EXPECT_EQ(d.writer_commits, 1u);
  EXPECT_TRUE(list.contains(kPastEnd));
  EXPECT_FALSE(list.contains(kLast));
}

TEST_F(SllMoveWriterCommitTest, FailedMoveAddsNoWriter) {
  // Victim absent: both hunts and the release_all cleanup are owned-only.
  const Delta d =
      measure([&] { EXPECT_FALSE(list.move(kLast - 1, kPastEnd)); });
  EXPECT_GE(d.commits, 2 * kFarCommits);
  EXPECT_EQ(d.writer_commits, 0u);
}

TEST_F(SllMoveWriterCommitTest, ContainsIsReadOnly) {
  const Delta d = measure([&] { EXPECT_TRUE(list.contains(kLast)); });
  EXPECT_EQ(d.commits, 1u);
  EXPECT_EQ(d.writer_commits, 0u);
}

}  // namespace
}  // namespace hohtm::ds

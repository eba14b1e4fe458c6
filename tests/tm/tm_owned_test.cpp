// Thread-owned words (TxLifecycle::read_owned / write_owned): rollback on
// every abort path, and a transaction whose only stores are owned words
// commits as a reader (no writer_commits tick).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "tm/tm.hpp"

namespace hohtm::tm {
namespace {

template <class TM>
class TmOwnedTest : public ::testing::Test {
 protected:
  void TearDown() override { Config::set_serial_threshold(8); }
};

using Backends = ::testing::Types<GLock, Tml, Norec, Tl2, TlEager>;
TYPED_TEST_SUITE(TmOwnedTest, Backends);

// Two owned words of different widths, both written twice per attempt so
// the reverse replay must restore the *first* old value.
struct Owned {
  long word = 5;
  std::uint32_t narrow = 7;
};

template <class Tx>
void scribble(Tx& tx, Owned& owned) {
  tx.write_owned(owned.word, tx.read_owned(owned.word) + 10);
  tx.write_owned(owned.word, tx.read_owned(owned.word) + 100);
  tx.write_owned(owned.narrow, std::uint32_t{0xFFFFFFFFu});
  tx.write_owned(owned.narrow, tx.read_owned(owned.narrow) - 1);
}

TYPED_TEST(TmOwnedTest, CommitKeepsOwnedWrites) {
  using TM = TypeParam;
  Owned owned;
  TM::atomically([&](typename TM::Tx& tx) { scribble(tx, owned); });
  EXPECT_EQ(owned.word, 115);
  EXPECT_EQ(owned.narrow, 0xFFFFFFFEu);
}

TYPED_TEST(TmOwnedTest, ConflictRetryRollsBackOwnedWrites) {
  using TM = TypeParam;
  Config::set_serial_threshold(100);  // keep every attempt speculative
  Owned owned;
  static long shared;
  shared = 0;
  std::vector<long> seen_word;
  std::vector<std::uint32_t> seen_narrow;
  int attempts = 0;
  TM::atomically([&](typename TM::Tx& tx) {
    seen_word.push_back(tx.read_owned(owned.word));
    seen_narrow.push_back(tx.read_owned(owned.narrow));
    scribble(tx, owned);
    tx.write(shared, tx.read(shared) + 1);
    // The same unwind a validation failure takes (abort_tx -> Conflict
    // -> on_abort -> retry), forced on the first two attempts.
    if (++attempts <= 2) abort_tx(AbortCause::kReadValidation);
  });
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(seen_word, (std::vector<long>{5, 5, 5}));
  EXPECT_EQ(seen_narrow, (std::vector<std::uint32_t>{7, 7, 7}));
  EXPECT_EQ(owned.word, 115);
  EXPECT_EQ(owned.narrow, 0xFFFFFFFEu);
  EXPECT_EQ(shared, 1);
}

TYPED_TEST(TmOwnedTest, UserExceptionRollsBackOwnedWrites) {
  using TM = TypeParam;
  Owned owned;
  EXPECT_THROW(TM::atomically([&](typename TM::Tx& tx) {
                 scribble(tx, owned);
                 throw std::runtime_error("abort");
               }),
               std::runtime_error);
  EXPECT_EQ(owned.word, 5);
  EXPECT_EQ(owned.narrow, 7u);
}

TYPED_TEST(TmOwnedTest, SerialEscalationAbortRollsBackOwnedWrites) {
  using TM = TypeParam;
  Config::set_serial_threshold(0);  // the first attempt is already serial
  Owned owned;
  const auto before = Stats::mine();
  std::vector<long> seen;
  TM::atomically([&](typename TM::Tx& tx) {
    seen.push_back(tx.read_owned(owned.word));
    scribble(tx, owned);
    if (seen.size() == 1) tx.retry();  // serial abort, re-run in place
  });
  EXPECT_EQ(seen, (std::vector<long>{5, 5}));
  EXPECT_EQ(owned.word, 115);
  EXPECT_EQ(Stats::mine().serial_commits, before.serial_commits + 1);

  // An exception out of a serial attempt unwinds the same log.
  Owned thrown;
  EXPECT_THROW(TM::atomically([&](typename TM::Tx& tx) {
                 scribble(tx, thrown);
                 throw std::runtime_error("abort");
               }),
               std::runtime_error);
  EXPECT_EQ(thrown.word, 5);
  EXPECT_EQ(thrown.narrow, 7u);
}

TYPED_TEST(TmOwnedTest, OwnedOnlyTransactionIsNotAWriterCommit) {
  using TM = TypeParam;
  Config::set_serial_threshold(100);
  Owned owned;
  static long shared;
  shared = 0;
  const StatCounters before = Stats::mine();
  TM::atomically([&](typename TM::Tx& tx) {
    (void)tx.read(shared);
    scribble(tx, owned);
  });
  const StatCounters mid = Stats::mine();
  EXPECT_EQ(mid.commits, before.commits + 1);
  EXPECT_EQ(mid.writer_commits, before.writer_commits);

  TM::atomically([&](typename TM::Tx& tx) {
    scribble(tx, owned);
    tx.write(shared, 1L);
  });
  const StatCounters after = Stats::mine();
  EXPECT_EQ(after.commits, mid.commits + 1);
  EXPECT_EQ(after.writer_commits, mid.writer_commits + 1);
  EXPECT_EQ(shared, 1);
}

}  // namespace
}  // namespace hohtm::tm

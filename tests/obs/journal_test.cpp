// The flight recorder's ring-buffer contract: disabled-by-default gating,
// bounded wrap-around with exact overwrite accounting, observation-window
// rebase, and the rafdac-facing JSON shape (DESIGN.md §16).
#include "obs/journal.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

namespace rafda::obs {
namespace {

using Kind = JournalEvent::Kind;

std::vector<JournalEvent> collect(const Journal& j) {
    std::vector<JournalEvent> out;
    j.visit([&](const JournalEvent& e) { out.push_back(e); });
    return out;
}

TEST(Journal, DisabledRecordsNothing) {
    Journal j;
    EXPECT_FALSE(j.enabled());
    j.record(Kind::RpcSend, 10, 0, 1, 42, 0, "m");
    EXPECT_EQ(j.size(), 0u);
    EXPECT_EQ(j.total_recorded(), 0u);
    EXPECT_EQ(j.to_json(),
              "{\"epoch_us\":0,\"capacity\":8192,\"total\":0,"
              "\"overwritten\":0,\"events\":[]}");
}

TEST(Journal, RecordsInOrderWithMonotoneSeq) {
    Journal j;
    j.set_enabled(true);
    j.record(Kind::RpcSend, 10, 0, 1, 7, 90, "RMI.poke");
    j.record(Kind::RpcArrive, 110, 1, 0, 7, 90, "");
    j.record(Kind::RpcReply, 220, 0, 1, 7, 30, "");

    std::vector<JournalEvent> events = collect(j);
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].seq, 1u);
    EXPECT_EQ(events[1].seq, 2u);
    EXPECT_EQ(events[2].seq, 3u);
    EXPECT_EQ(events[0].kind, Kind::RpcSend);
    EXPECT_EQ(events[0].t_us, 10u);
    EXPECT_EQ(events[0].node, 0);
    EXPECT_EQ(events[0].peer, 1);
    EXPECT_EQ(events[0].a, 7u);
    EXPECT_EQ(events[0].b, 90u);
    EXPECT_EQ(events[0].detail, "RMI.poke");
    EXPECT_EQ(j.overwritten(), 0u);
}

TEST(Journal, WrapAroundKeepsNewestAndCountsOverwritten) {
    Journal j;
    j.set_capacity(4);
    j.set_enabled(true);
    for (std::uint64_t k = 0; k < 10; ++k)
        j.record(Kind::RpcSend, k, 0, 1, k, 0, "");

    EXPECT_EQ(j.size(), 4u);
    EXPECT_EQ(j.total_recorded(), 10u);
    EXPECT_EQ(j.overwritten(), 6u);
    std::vector<JournalEvent> events = collect(j);
    ASSERT_EQ(events.size(), 4u);
    // Oldest-to-newest traversal of the surviving tail, seq intact.
    for (std::size_t k = 0; k < 4; ++k) {
        EXPECT_EQ(events[k].a, 6 + k);
        EXPECT_EQ(events[k].seq, 7 + k);
    }
}

TEST(Journal, StringViewDetailsTruncateAndSurviveWrap) {
    // record() copies the viewed text into the slot's reused string: only
    // the view is copied, details past kMaxDetail are cut with "...", and a
    // reused slot never keeps a stale tail from its previous occupant.
    Journal j;
    j.set_capacity(2);
    j.set_enabled(true);
    const std::string longer(Journal::kMaxDetail + 10, 'x');
    const std::string cut = std::string(Journal::kMaxDetail, 'x') + "...";
    const std::string exact(Journal::kMaxDetail, 'y');
    const std::string buffer = "abcdef";
    j.record(Kind::RpcSend, 1, 0, 1, 1, 0, longer);
    j.record(Kind::RpcSend, 2, 0, 1, 2, 0, exact);
    std::vector<JournalEvent> events = collect(j);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].detail, cut);
    EXPECT_EQ(events[1].detail, exact);  // exactly kMaxDetail: kept whole

    j.record(Kind::RpcSend, 3, 0, 1, 3, 0, std::string_view(buffer).substr(1, 3));
    j.record(Kind::RpcSend, 4, 0, 1, 4, 0, {});
    events = collect(j);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].detail, "bcd");
    EXPECT_EQ(events[1].detail, "");

    j.record(Kind::RpcSend, 5, 0, 1, 5, 0, longer);
    events = collect(j);
    EXPECT_EQ(events[0].detail, "");
    EXPECT_EQ(events[1].detail, cut);
    EXPECT_EQ(events[1].seq, 5u);
    EXPECT_EQ(j.overwritten(), 3u);
}

TEST(Journal, CapacityZeroClampsToOne) {
    Journal j;
    j.set_capacity(0);
    EXPECT_EQ(j.capacity(), 1u);
    j.set_enabled(true);
    j.record(Kind::RpcSend, 1, 0, 1, 1, 0, "");
    j.record(Kind::RpcSend, 2, 0, 1, 2, 0, "");
    EXPECT_EQ(j.size(), 1u);
    EXPECT_EQ(collect(j)[0].a, 2u);
}

TEST(Journal, SetCapacityClearsContents) {
    Journal j;
    j.set_enabled(true);
    j.record(Kind::RpcSend, 1, 0, 1, 1, 0, "");
    j.set_capacity(16);
    EXPECT_EQ(j.size(), 0u);
    EXPECT_EQ(j.total_recorded(), 0u);
    j.record(Kind::RpcSend, 2, 0, 1, 2, 0, "");
    EXPECT_EQ(j.size(), 1u);
}

TEST(Journal, DisableStopsRecordingButKeepsEvents) {
    Journal j;
    j.set_enabled(true);
    j.record(Kind::Migrate, 5, 0, 1, 100, 200, "C");
    j.set_enabled(false);
    j.record(Kind::Migrate, 6, 1, 2, 101, 201, "C");
    EXPECT_EQ(j.size(), 1u);
    EXPECT_EQ(collect(j)[0].a, 100u);
}

TEST(Journal, RebaseDropsEventsAndMovesEpoch) {
    Journal j;
    j.set_enabled(true);
    j.record(Kind::FaultEdge, 50, 0, 1, 1, 0, "link");
    EXPECT_EQ(j.epoch_us(), 0u);

    j.rebase(5000);
    EXPECT_EQ(j.epoch_us(), 5000u);
    EXPECT_EQ(j.size(), 0u);
    EXPECT_EQ(j.total_recorded(), 0u);
    EXPECT_TRUE(j.enabled());  // rebase opens a new window, doesn't disarm

    j.record(Kind::FaultEdge, 5100, 0, 1, 0, 0, "link");
    EXPECT_EQ(j.size(), 1u);
}

TEST(Journal, ToJsonShape) {
    Journal j;
    j.set_capacity(4);
    j.set_enabled(true);
    j.record(Kind::DedupHit, 42, 1, -1, 9, 0, "");
    j.record(Kind::Breaker, 50, 0, 2, 1, 0, "q\"uote");

    EXPECT_EQ(j.to_json(),
              "{\"epoch_us\":0,\"capacity\":4,\"total\":2,\"overwritten\":0,"
              "\"events\":["
              "{\"seq\":1,\"t_us\":42,\"kind\":\"dedup\",\"node\":1,"
              "\"peer\":-1,\"a\":9,\"b\":0},"
              "{\"seq\":2,\"t_us\":50,\"kind\":\"breaker\",\"node\":0,"
              "\"peer\":2,\"a\":1,\"b\":0,\"detail\":\"q\\\"uote\"}"
              "]}");
}

TEST(Journal, KindNamesAreStable) {
    EXPECT_STREQ(journal_kind_name(Kind::RpcSend), "send");
    EXPECT_STREQ(journal_kind_name(Kind::RpcArrive), "arrive");
    EXPECT_STREQ(journal_kind_name(Kind::RpcDispatch), "dispatch");
    EXPECT_STREQ(journal_kind_name(Kind::RpcReply), "reply");
    EXPECT_STREQ(journal_kind_name(Kind::RpcDrop), "drop");
    EXPECT_STREQ(journal_kind_name(Kind::RpcRetry), "retry");
    EXPECT_STREQ(journal_kind_name(Kind::RpcTimeout), "timeout");
    EXPECT_STREQ(journal_kind_name(Kind::DedupHit), "dedup");
    EXPECT_STREQ(journal_kind_name(Kind::Breaker), "breaker");
    EXPECT_STREQ(journal_kind_name(Kind::FaultEdge), "fault");
    EXPECT_STREQ(journal_kind_name(Kind::Migrate), "migrate");
}

}  // namespace
}  // namespace rafda::obs

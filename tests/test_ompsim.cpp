/// \file test_ompsim.cpp
/// Tests for the OpenMP-like shim: schedule coverage/layout semantics,
/// Table-1 equivalences against the DLS library and the implicit barrier
/// (the team has no nowait).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "dls/chunk_formulas.hpp"
#include "dls/scheduler.hpp"
#include "ompsim/team.hpp"

namespace {

using namespace hdls::ompsim;
using hdls::dls::Technique;

struct ChunkRecord {
    std::int64_t begin;
    std::int64_t end;
    int thread;
};

/// Runs one parallel-for and returns the chunks, sorted by begin.
std::vector<ChunkRecord> run_and_record(ThreadTeam& team, std::int64_t n,
                                        const ForOptions& opts) {
    std::vector<ChunkRecord> chunks;
    std::mutex mutex;
    team.parallel_for(0, n, opts, [&](std::int64_t b, std::int64_t e, int tid) {
        const std::lock_guard<std::mutex> lock(mutex);
        chunks.push_back({b, e, tid});
    });
    std::sort(chunks.begin(), chunks.end(),
              [](const ChunkRecord& a, const ChunkRecord& b) { return a.begin < b.begin; });
    return chunks;
}

void expect_partition(const std::vector<ChunkRecord>& chunks, std::int64_t n) {
    std::int64_t expected = 0;
    for (const auto& c : chunks) {
        EXPECT_EQ(c.begin, expected);
        EXPECT_GT(c.end, c.begin);
        expected = c.end;
    }
    EXPECT_EQ(expected, n);
}

// ---------------------------------------------------------------- regions

TEST(TeamTest, ParallelRunsEveryThreadOnce) {
    ThreadTeam team(4);
    EXPECT_EQ(team.size(), 4);
    std::mutex mutex;
    std::multiset<int> tids;
    team.parallel([&](int tid) {
        const std::lock_guard<std::mutex> lock(mutex);
        tids.insert(tid);
    });
    EXPECT_EQ(tids, (std::multiset<int>{0, 1, 2, 3}));
}

TEST(TeamTest, TeamIsReusableAcrossRegions) {
    ThreadTeam team(3);
    std::atomic<int> total{0};
    for (int round = 0; round < 50; ++round) {
        team.parallel([&](int) { total.fetch_add(1); });
    }
    EXPECT_EQ(total.load(), 150);
}

TEST(TeamTest, SingleThreadTeamWorks) {
    ThreadTeam team(1);
    std::atomic<std::int64_t> sum{0};
    team.parallel_for(0, 100, ForOptions{Schedule::Dynamic, 1},
                      [&](std::int64_t b, std::int64_t e, int) { sum.fetch_add(e - b); });
    EXPECT_EQ(sum.load(), 100);
}

TEST(TeamTest, MisuseThrows) {
    EXPECT_THROW(ThreadTeam(0), std::invalid_argument);
    ThreadTeam team(2);
    EXPECT_THROW(team.barrier(), std::logic_error);
    EXPECT_THROW(team.for_chunks(0, 10, ForOptions{}, [](std::int64_t, std::int64_t, int) {}),
                 std::logic_error);
    team.parallel([&](int tid) {
        if (tid == 0) {
            EXPECT_THROW(team.parallel([](int) {}), std::logic_error);
        }
        team.barrier();
        EXPECT_THROW(
            team.for_chunks(10, 0, ForOptions{}, [](std::int64_t, std::int64_t, int) {}),
            std::invalid_argument);
        team.barrier();  // keep the construct sequence aligned across threads
    });
}

TEST(TeamTest, BarrierSynchronizesAllThreads) {
    ThreadTeam team(4);
    std::atomic<int> before{0};
    std::atomic<bool> violated{false};
    team.parallel([&](int) {
        before.fetch_add(1);
        team.barrier();
        if (before.load() != 4) {
            violated.store(true);
        }
    });
    EXPECT_FALSE(violated.load());
}

// --------------------------------------------------------------- coverage

struct CoverageCase {
    Schedule schedule;
    std::int64_t chunk;
    int threads;
    std::int64_t n;
};

class ScheduleCoverage : public ::testing::TestWithParam<CoverageCase> {};

TEST_P(ScheduleCoverage, EveryIterationExecutedExactlyOnce) {
    const auto& [schedule, chunk, threads, n] = GetParam();
    ThreadTeam team(threads);
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    team.parallel([&](int) {
        team.for_chunks(0, n, ForOptions{schedule, chunk},
                        [&](std::int64_t b, std::int64_t e, int) {
                            for (std::int64_t i = b; i < e; ++i) {
                                hits[static_cast<std::size_t>(i)].fetch_add(1);
                            }
                        });
    });
    for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "iteration " << i;
    }
}

std::vector<CoverageCase> coverage_cases() {
    std::vector<CoverageCase> cases;
    for (const auto& [s, chunk] : std::vector<std::pair<Schedule, std::int64_t>>{
             {Schedule::Static, 0}, {Schedule::Static, 3}, {Schedule::Dynamic, 0},
             {Schedule::Guided, 0}, {Schedule::Tss, 0}, {Schedule::Fac2, 0}}) {
        for (const int threads : {1, 2, 4, 7}) {
            for (const std::int64_t n : {0LL, 1LL, 13LL, 1000LL}) {
                cases.push_back({s, chunk, threads, n});
            }
        }
    }
    // Dynamic with larger grain.
    cases.push_back({Schedule::Dynamic, 16, 4, 1000});
    cases.push_back({Schedule::Guided, 8, 4, 1000});
    return cases;
}

std::string schedule_name(Schedule s) {
    switch (s) {
        case Schedule::Static:
            return "static";
        case Schedule::Dynamic:
            return "dynamic";
        case Schedule::Guided:
            return "guided";
        case Schedule::Tss:
            return "tss";
        case Schedule::Fac2:
            return "fac2";
    }
    return "?";
}

std::string coverage_name(const ::testing::TestParamInfo<CoverageCase>& info) {
    return schedule_name(info.param.schedule) + "_c" +
           std::to_string(info.param.chunk) + "_t" + std::to_string(info.param.threads) + "_n" +
           std::to_string(info.param.n);
}

INSTANTIATE_TEST_SUITE_P(AllSchedules, ScheduleCoverage, ::testing::ValuesIn(coverage_cases()),
                         coverage_name);

// ------------------------------------------------------------ layout rules

TEST(ScheduleLayoutTest, StaticBlockPartition) {
    ThreadTeam team(4);
    const auto chunks = run_and_record(team, 10, ForOptions{Schedule::Static, 0});
    // OpenMP schedule(static): blocks of ceil/floor with leftovers first.
    ASSERT_EQ(chunks.size(), 4u);
    EXPECT_EQ(chunks[0].begin, 0);
    EXPECT_EQ(chunks[0].end, 3);
    EXPECT_EQ(chunks[0].thread, 0);
    EXPECT_EQ(chunks[1].begin, 3);
    EXPECT_EQ(chunks[1].end, 6);
    EXPECT_EQ(chunks[1].thread, 1);
    EXPECT_EQ(chunks[2].begin, 6);
    EXPECT_EQ(chunks[2].end, 8);
    EXPECT_EQ(chunks[2].thread, 2);
    EXPECT_EQ(chunks[3].begin, 8);
    EXPECT_EQ(chunks[3].end, 10);
    EXPECT_EQ(chunks[3].thread, 3);
}

TEST(ScheduleLayoutTest, StaticChunkRoundRobin) {
    ThreadTeam team(2);
    const auto chunks = run_and_record(team, 8, ForOptions{Schedule::Static, 2});
    ASSERT_EQ(chunks.size(), 4u);
    EXPECT_EQ(chunks[0].thread, 0);  // [0,2)
    EXPECT_EQ(chunks[1].thread, 1);  // [2,4)
    EXPECT_EQ(chunks[2].thread, 0);  // [4,6)
    EXPECT_EQ(chunks[3].thread, 1);  // [6,8)
    expect_partition(chunks, 8);
}

TEST(ScheduleLayoutTest, DynamicOneIsSelfScheduling) {
    ThreadTeam team(4);
    const auto chunks = run_and_record(team, 100, ForOptions{Schedule::Dynamic, 1});
    EXPECT_EQ(chunks.size(), 100u);
    for (const auto& c : chunks) {
        EXPECT_EQ(c.end - c.begin, 1);
    }
    expect_partition(chunks, 100);
}

TEST(ScheduleLayoutTest, GuidedMatchesGssSequenceExactly) {
    // The guided cursor rule makes the (begin, size) sequence a
    // deterministic function of the shared cursor, independent of which
    // thread wins each update — so it must equal the GSS master sequence.
    ThreadTeam team(4);
    const auto chunks = run_and_record(team, 1000, ForOptions{Schedule::Guided, 1});
    hdls::dls::LoopParams p;
    p.total_iterations = 1000;
    p.workers = 4;
    const auto gss = hdls::dls::enumerate_chunks(Technique::GSS, p);
    ASSERT_EQ(chunks.size(), gss.size());
    for (std::size_t i = 0; i < gss.size(); ++i) {
        EXPECT_EQ(chunks[i].begin, gss[i].start) << i;
        EXPECT_EQ(chunks[i].end - chunks[i].begin, gss[i].size) << i;
    }
    expect_partition(chunks, 1000);
}

TEST(ScheduleLayoutTest, GuidedHonorsMinChunk) {
    ThreadTeam team(4);
    const auto chunks = run_and_record(team, 1000, ForOptions{Schedule::Guided, 32});
    for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {  // tail may clamp
        EXPECT_GE(chunks[i].end - chunks[i].begin, 32);
    }
    expect_partition(chunks, 1000);
}

TEST(ScheduleLayoutTest, TssSingleThreadMatchesFormulas) {
    ThreadTeam team(1);
    const auto chunks = run_and_record(team, 1000, ForOptions{Schedule::Tss, 0});
    hdls::dls::LoopParams p;
    p.total_iterations = 1000;
    p.workers = 1;
    std::int64_t step = 0;
    std::int64_t scheduled = 0;
    for (const auto& c : chunks) {
        const auto hint = hdls::dls::chunk_size_for_step(Technique::TSS, p, step++);
        EXPECT_EQ(c.begin, scheduled);
        EXPECT_EQ(c.end - c.begin, std::min(hint, 1000 - scheduled));
        scheduled += c.end - c.begin;
    }
    EXPECT_EQ(scheduled, 1000);
}

TEST(ScheduleLayoutTest, Fac2BatchesHalve) {
    ThreadTeam team(4);
    const auto chunks = run_and_record(team, 1024, ForOptions{Schedule::Fac2, 0});
    expect_partition(chunks, 1024);
    // First batch chunk must be ceil(N/2P) = 128.
    std::int64_t max_size = 0;
    for (const auto& c : chunks) {
        max_size = std::max(max_size, c.end - c.begin);
    }
    EXPECT_EQ(max_size, 128);
}

// ------------------------------------------------------- barrier semantics

TEST(BarrierSemanticsTest, ImplicitBarrierHoldsBackFastThreads) {
    // Thread 1 finishes its chunk instantly but must not observe loop-2
    // state before thread 0 completes loop 1 (the Figure-2 behaviour).
    ThreadTeam team(2);
    std::atomic<bool> slow_done{false};
    std::atomic<bool> fast_entered_second_loop_early{false};
    team.parallel([&](int) {
        team.for_chunks(0, 2, ForOptions{Schedule::Static, 0},
                        [&](std::int64_t b, std::int64_t, int tid) {
                            if (tid == 0 && b == 0) {
                                std::this_thread::sleep_for(std::chrono::milliseconds(30));
                                slow_done.store(true);
                            }
                        });
        // Implicit barrier: both threads arrive here only after thread 0
        // finished.
        if (!slow_done.load()) {
            fast_entered_second_loop_early.store(true);
        }
    });
    EXPECT_FALSE(fast_entered_second_loop_early.load());
}

// ---------------------------------------------------------------- Table 1

TEST(Table1Test, OpenMpEquivalents) {
    const auto s = openmp_equivalent(Technique::Static);
    ASSERT_TRUE(s);
    EXPECT_EQ(s->schedule, Schedule::Static);
    const auto ss = openmp_equivalent(Technique::SS);
    ASSERT_TRUE(ss);
    EXPECT_EQ(ss->schedule, Schedule::Dynamic);
    EXPECT_EQ(ss->chunk, 1);
    const auto gss = openmp_equivalent(Technique::GSS);
    ASSERT_TRUE(gss);
    EXPECT_EQ(gss->schedule, Schedule::Guided);
    EXPECT_EQ(gss->chunk, 1);
    EXPECT_FALSE(openmp_equivalent(Technique::TSS));
    EXPECT_FALSE(openmp_equivalent(Technique::FAC2));
    EXPECT_FALSE(openmp_equivalent(Technique::WF));
}

TEST(Table1Test, ExtendedEquivalentsCoverPaperIntraTechniques) {
    for (const Technique t : hdls::dls::paper_intranode_techniques()) {
        EXPECT_TRUE(extended_equivalent(t).has_value())
            << hdls::dls::technique_name(t);
    }
}

// ----------------------------------------------------- workshare recycling

TEST(WorkshareTest, ManySequentialConstructsRecycleSlots) {
    ThreadTeam team(4);
    std::atomic<std::int64_t> total{0};
    team.parallel([&](int) {
        // Back-to-back constructs share one set of cursors, which each
        // implicit barrier resets.
        for (int i = 0; i < 200; ++i) {
            team.for_chunks(0, 8, ForOptions{Schedule::Dynamic, 1},
                            [&](std::int64_t b, std::int64_t e, int) {
                                total.fetch_add(e - b);
                            });
        }
    });
    EXPECT_EQ(total.load(), 200 * 8);
}

}  // namespace

/// \file test_libgomp_parity.cpp
/// ompsim's worksharing schedules against the OpenMP runtime they stand in
/// for (libgomp under GCC). Built with OpenMP; CMake leaves it out when no
/// OpenMP runtime is found and under TSan, which libgomp is not
/// instrumented for.
///
/// Over n in {0, 1, 7, 100, 1001}, 1-4 threads and k in {1, 3, 8}:
///  * schedule(static, k): the iteration->thread map. The OpenMP spec
///    fixes it (chunk c goes to thread c mod T).
///  * schedule(static): the iteration->thread map. The spec leaves the
///    block split to the implementation; libgomp gives the first n mod T
///    threads one extra iteration, as ompsim does.
///  * schedule(dynamic, k): the multiset of chunk sizes. Which thread runs
///    which chunk is a race, so only the sizes are compared.
/// schedule(guided, k) is left out: its chunk-size formula is
/// implementation-defined (libgomp's differs from the GSS rule that
/// ompsim implements for the paper's Table 1).

#include <gtest/gtest.h>

#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "ompsim/team.hpp"

// libgomp's loop API: what GCC lowers `#pragma omp for schedule(dynamic, k)`
// to. Called directly, it shows the chunk bounds the runtime hands out,
// which the loop body of the pragma form cannot tell apart.
extern "C" {
bool GOMP_loop_nonmonotonic_dynamic_start(long start, long end, long incr, long chunk_size,
                                          long* istart, long* iend);
bool GOMP_loop_nonmonotonic_dynamic_next(long* istart, long* iend);
void GOMP_loop_end();
}

namespace {

using hdls::ompsim::ForOptions;
using hdls::ompsim::Schedule;
using hdls::ompsim::ThreadTeam;

constexpr std::int64_t kSizes[] = {0, 1, 7, 100, 1001};
constexpr int kThreads[] = {1, 2, 3, 4};
constexpr std::int64_t kChunks[] = {1, 3, 8};

std::string where(std::int64_t n, int threads, std::int64_t k) {
    return "n=" + std::to_string(n) + " threads=" + std::to_string(threads) +
           " k=" + std::to_string(k);
}

/// Iteration -> thread map of one ompsim construct.
std::vector<int> ompsim_map(ThreadTeam& team, std::int64_t n, const ForOptions& opts) {
    std::vector<int> owner(static_cast<std::size_t>(n), -1);
    team.parallel_for(0, n, opts, [&](std::int64_t b, std::int64_t e, int tid) {
        for (std::int64_t i = b; i < e; ++i) {
            owner[static_cast<std::size_t>(i)] = tid;
        }
    });
    return owner;
}

/// Iteration -> thread map of `#pragma omp for schedule(static[, k])`
/// (k == 0: no chunk argument).
std::vector<int> libgomp_static_map(std::int64_t n, int threads, std::int64_t k) {
    std::vector<int> owner(static_cast<std::size_t>(n), -1);
    int team_size = 0;
#pragma omp parallel num_threads(threads)
    {
#pragma omp single
        team_size = omp_get_num_threads();
        if (k > 0) {
#pragma omp for schedule(static, k)
            for (std::int64_t i = 0; i < n; ++i) {
                owner[static_cast<std::size_t>(i)] = omp_get_thread_num();
            }
        } else {
#pragma omp for schedule(static)
            for (std::int64_t i = 0; i < n; ++i) {
                owner[static_cast<std::size_t>(i)] = omp_get_thread_num();
            }
        }
    }
    EXPECT_EQ(team_size, threads) << "the OpenMP runtime shrank the team";
    return owner;
}

std::vector<std::int64_t> ompsim_dynamic_sizes(ThreadTeam& team, std::int64_t n,
                                               std::int64_t k) {
    std::mutex mutex;
    std::vector<std::int64_t> sizes;
    team.parallel_for(0, n, ForOptions{Schedule::Dynamic, k},
                      [&](std::int64_t b, std::int64_t e, int) {
                          const std::lock_guard<std::mutex> lock(mutex);
                          sizes.push_back(e - b);
                      });
    std::sort(sizes.begin(), sizes.end());
    return sizes;
}

std::vector<std::int64_t> libgomp_dynamic_sizes(std::int64_t n, int threads, std::int64_t k) {
    std::mutex mutex;
    std::vector<std::int64_t> sizes;
    int team_size = 0;
#pragma omp parallel num_threads(threads)
    {
#pragma omp single
        team_size = omp_get_num_threads();
        long b = 0;
        long e = 0;
        bool more = GOMP_loop_nonmonotonic_dynamic_start(0, static_cast<long>(n), 1,
                                                         static_cast<long>(k), &b, &e);
        while (more) {
            {
                const std::lock_guard<std::mutex> lock(mutex);
                sizes.push_back(e - b);
            }
            more = GOMP_loop_nonmonotonic_dynamic_next(&b, &e);
        }
        GOMP_loop_end();
    }
    EXPECT_EQ(team_size, threads) << "the OpenMP runtime shrank the team";
    std::sort(sizes.begin(), sizes.end());
    return sizes;
}

TEST(LibgompParity, StaticChunkedMapsMatch) {
    for (const int threads : kThreads) {
        ThreadTeam team(threads);
        for (const std::int64_t n : kSizes) {
            for (const std::int64_t k : kChunks) {
                EXPECT_EQ(ompsim_map(team, n, ForOptions{Schedule::Static, k}),
                          libgomp_static_map(n, threads, k))
                    << where(n, threads, k);
            }
        }
    }
}

TEST(LibgompParity, StaticBlockMapsMatch) {
    for (const int threads : kThreads) {
        ThreadTeam team(threads);
        for (const std::int64_t n : kSizes) {
            EXPECT_EQ(ompsim_map(team, n, ForOptions{Schedule::Static, 0}),
                      libgomp_static_map(n, threads, 0))
                << where(n, threads, 0);
        }
    }
}

TEST(LibgompParity, DynamicChunkSizeMultisetsMatch) {
    for (const int threads : kThreads) {
        ThreadTeam team(threads);
        for (const std::int64_t n : kSizes) {
            for (const std::int64_t k : kChunks) {
                EXPECT_EQ(ompsim_dynamic_sizes(team, n, k), libgomp_dynamic_sizes(n, threads, k))
                    << where(n, threads, k);
            }
        }
    }
}

}  // namespace

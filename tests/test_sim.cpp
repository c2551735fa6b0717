/// \file test_sim.cpp
/// Tests for the discrete-event cluster simulator: resource math against
/// hand-computed schedules, conservation and accounting invariants,
/// determinism, and the qualitative model behaviours the paper's figures
/// rest on (barrier idle, lock-polling contention, any-rank refill), and
/// golden digests that pin every priced time of a fixed config set.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/mandelbrot.hpp"
#include "apps/synthetic.hpp"
#include "sim/resources.hpp"
#include "sim/simulator.hpp"
#include "trace/analysis.hpp"

namespace {

using namespace hdls::sim;
using hdls::apps::WorkloadKind;
using hdls::apps::WorkloadSpec;
using hdls::dls::Technique;
using hdls::trace::EventKind;

WorkloadTrace make_trace(WorkloadKind kind, std::size_t n, double mean, double cov,
                         std::uint64_t seed = 0xFEEDULL) {
    WorkloadSpec spec;
    spec.kind = kind;
    spec.iterations = n;
    spec.mean_seconds = mean;
    spec.cov = cov;
    spec.seed = seed;
    return WorkloadTrace(hdls::apps::make_workload(spec));
}

CostModel zero_costs() {
    CostModel m;
    m.internode_rma_us = 0;
    m.global_queue_service_us = 0;
    m.shmem_lock_hold_us = 0;
    m.shmem_lock_poll_us = 0;
    m.shmem_lock_attempt_us = 0;
    m.omp_dequeue_us = 0;
    m.omp_barrier_base_us = 0;
    m.omp_barrier_per_thread_us = 0;
    m.chunk_overhead_us = 0;
    return m;
}

// ---------------------------------------------------------------- resources

TEST(ResourceTest, FcfsChainsArrivals) {
    FcfsResource r(1.0);
    EXPECT_DOUBLE_EQ(r.acquire(0.0), 1.0);   // idle server
    EXPECT_DOUBLE_EQ(r.acquire(0.5), 2.0);   // queues behind the first
    EXPECT_DOUBLE_EQ(r.acquire(3.0), 4.0);   // server idle again
    EXPECT_DOUBLE_EQ(r.busy_until(), 4.0);
}

TEST(ResourceTest, PollingLockQuantizesContendedGrants) {
    PollingLock lock(2.0, 5.0, 1.0);
    const auto a = lock.acquire(0.0);
    EXPECT_DOUBLE_EQ(a.acquired, 0.0);  // free lock: immediate
    EXPECT_DOUBLE_EQ(a.released, 2.0);
    EXPECT_DOUBLE_EQ(a.wait, 0.0);
    // Contended with no other poller: handoff slips by poll/2 past the
    // release (the average lock-attempt arrival offset of ref [38]).
    const auto b = lock.acquire(1.0);
    EXPECT_DOUBLE_EQ(b.acquired, 2.0 + 2.5);
    EXPECT_DOUBLE_EQ(b.wait, 3.5);
    EXPECT_DOUBLE_EQ(b.released, 6.5);
    // Contended with one origin still polling (b, granted at 4.5 > 2.0):
    // its queued attempt adds one attempt-processing delay.
    const auto c = lock.acquire(2.0);
    EXPECT_DOUBLE_EQ(c.acquired, 6.5 + 2.5 + 1.0);
    EXPECT_DOUBLE_EQ(c.released, 12.0);
    // Free again afterwards.
    const auto d = lock.acquire(20.0);
    EXPECT_DOUBLE_EQ(d.acquired, 20.0);
    EXPECT_DOUBLE_EQ(d.wait, 0.0);
}

TEST(ResourceTest, PollingLockDegradesSuperlinearlyWithContention) {
    // k simultaneous requesters: each successive grant pays for the
    // still-polling peers, so per-grant cost grows with depth.
    PollingLock lock(1.0, 2.0, 0.5);
    std::vector<double> waits;
    for (int i = 0; i < 6; ++i) {
        waits.push_back(lock.acquire(0.0).wait);
    }
    for (std::size_t i = 1; i < waits.size(); ++i) {
        EXPECT_GT(waits[i], waits[i - 1]);
    }
    // Depth grows by one per pending origin: increments must themselves
    // grow (superlinear total wait).
    EXPECT_GT(waits[5] - waits[4], waits[2] - waits[1]);
}

TEST(ResourceTest, PollingLockWithZeroPollAndAttemptIsFifo) {
    PollingLock lock(1.0, 0.0, 0.0);
    (void)lock.acquire(0.0);
    const auto g = lock.acquire(0.25);
    EXPECT_DOUBLE_EQ(g.acquired, 1.0);  // plain FIFO handoff
}

// ----------------------------------------------------------------- workload

TEST(WorkloadTraceTest, RangeCostsViaPrefixSums) {
    WorkloadTrace t({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(t.total(), 10.0);
    EXPECT_DOUBLE_EQ(t.range_cost(0, 4), 10.0);
    EXPECT_DOUBLE_EQ(t.range_cost(1, 3), 5.0);
    EXPECT_DOUBLE_EQ(t.range_cost(2, 2), 0.0);
    EXPECT_DOUBLE_EQ(t.cost(3), 4.0);
    EXPECT_THROW((void)t.range_cost(-1, 2), std::out_of_range);
    EXPECT_THROW((void)t.range_cost(2, 5), std::out_of_range);
    EXPECT_THROW(WorkloadTrace({1.0, -0.5}), std::invalid_argument);
}

// --------------------------------------------------------- analytic cases

TEST(AnalyticTest, BalancedStaticStaticIsPerfectWithZeroCosts) {
    // Constant costs, zero overheads: T_par must be exactly W/P for both
    // execution models.
    ClusterSpec cluster;
    cluster.nodes = 4;
    cluster.workers_per_node = 4;
    cluster.costs = zero_costs();
    const WorkloadTrace trace = make_trace(WorkloadKind::Constant, 1600, 1e-3, 0.0);
    SimConfig cfg;
    cfg.inter = Technique::Static;
    cfg.intra = Technique::Static;
    for (const ExecModel m : {ExecModel::MpiMpi, ExecModel::MpiOpenMp}) {
        const auto r = simulate(m, cluster, cfg, trace);
        EXPECT_NEAR(r.parallel_time, trace.total() / 16.0, 1e-12) << exec_model_name(m);
        EXPECT_NEAR(r.efficiency(), 1.0, 1e-9);
        EXPECT_EQ(r.executed_iterations(), 1600);
    }
}

TEST(AnalyticTest, SingleWorkerRunsSerially) {
    ClusterSpec cluster;
    cluster.nodes = 1;
    cluster.workers_per_node = 1;
    cluster.costs = zero_costs();
    const WorkloadTrace trace = make_trace(WorkloadKind::Exponential, 500, 1e-3, 1.0);
    for (const Technique intra : {Technique::Static, Technique::SS, Technique::GSS}) {
        SimConfig cfg;
        cfg.inter = Technique::GSS;
        cfg.intra = intra;
        const auto r = simulate(ExecModel::MpiMpi, cluster, cfg, trace);
        EXPECT_NEAR(r.parallel_time, trace.total(), 1e-9);
    }
}

TEST(AnalyticTest, KnownTwoWorkerSchedule) {
    // 2 workers, 1 node, SS, zero costs, trace {4,1,1,1,1}: W0 takes i0
    // (4s); W1 takes i1..i4 (1s each). T_par = 4.
    ClusterSpec cluster;
    cluster.nodes = 1;
    cluster.workers_per_node = 2;
    cluster.costs = zero_costs();
    const WorkloadTrace trace(std::vector<double>{4, 1, 1, 1, 1});
    SimConfig cfg;
    cfg.inter = Technique::Static;
    cfg.intra = Technique::SS;
    const auto r = simulate(ExecModel::MpiMpi, cluster, cfg, trace);
    EXPECT_DOUBLE_EQ(r.parallel_time, 4.0);
    // One worker did 1 iteration, the other 4.
    std::vector<std::int64_t> iters = {r.workers[0].iterations, r.workers[1].iterations};
    std::sort(iters.begin(), iters.end());
    EXPECT_EQ(iters[0], 1);
    EXPECT_EQ(iters[1], 4);
}

TEST(AnalyticTest, HybridBarrierIdleIsExact) {
    // 1 node x 2 threads, STATIC+Static, zero costs, trace {3,1}:
    // thread 0 computes 3s, thread 1 computes 1s, then the implicit
    // barrier parks thread 1 for exactly 2s.
    ClusterSpec cluster;
    cluster.nodes = 1;
    cluster.workers_per_node = 2;
    cluster.costs = zero_costs();
    const WorkloadTrace trace(std::vector<double>{3, 1});
    SimConfig cfg;
    cfg.inter = Technique::Static;
    cfg.intra = Technique::Static;
    const auto r = simulate(ExecModel::MpiOpenMp, cluster, cfg, trace);
    EXPECT_DOUBLE_EQ(r.parallel_time, 3.0);
    EXPECT_DOUBLE_EQ(r.workers[1].idle, 2.0);
    EXPECT_DOUBLE_EQ(r.workers[0].idle, 0.0);
}

// ------------------------------------------------------------ conservation

struct ConservationCase {
    ExecModel model;
    Technique inter;
    Technique intra;
};

class Conservation : public ::testing::TestWithParam<ConservationCase> {};

TEST_P(Conservation, IterationsAndTimeAreConserved) {
    const auto& [model, inter, intra] = GetParam();
    ClusterSpec cluster;
    cluster.nodes = 3;
    cluster.workers_per_node = 5;
    const WorkloadTrace trace = make_trace(WorkloadKind::Exponential, 5000, 2e-4, 1.0);
    SimConfig cfg;
    cfg.inter = inter;
    cfg.intra = intra;
    const auto r = simulate(model, cluster, cfg, trace);
    // Every iteration executed exactly once (in cost terms too).
    EXPECT_EQ(r.executed_iterations(), trace.iterations());
    EXPECT_NEAR(r.total_busy(), trace.total(), 1e-9);
    EXPECT_GT(r.global_chunks(), 0);
    EXPECT_GE(r.sub_chunks(), r.global_chunks());
    // Per-worker time accounting closes: busy + overhead + idle = finish.
    for (const auto& w : r.workers) {
        EXPECT_NEAR(w.busy + w.overhead + w.idle, w.finish, 1e-6)
            << "worker " << w.node << "/" << w.worker_in_node;
        EXPECT_LE(w.finish, r.parallel_time + 1e-12);
    }
}

std::vector<ConservationCase> conservation_cases() {
    std::vector<ConservationCase> cases;
    for (const ExecModel m : {ExecModel::MpiMpi, ExecModel::MpiOpenMp}) {
        for (const Technique inter : hdls::dls::paper_internode_techniques()) {
            for (const Technique intra : hdls::dls::paper_intranode_techniques()) {
                cases.push_back({m, inter, intra});
            }
        }
    }
    return cases;
}

std::string conservation_name(const ::testing::TestParamInfo<ConservationCase>& info) {
    std::string s;
    switch (info.param.model) {
        case ExecModel::MpiMpi:
            s = "MpiMpi_";
            break;
        case ExecModel::MpiOpenMp:
            s = "MpiOpenMp_";
            break;
    }
    s += std::string(hdls::dls::technique_name(info.param.inter)) + "_" +
         std::string(hdls::dls::technique_name(info.param.intra));
    return s;
}

INSTANTIATE_TEST_SUITE_P(AllModels, Conservation, ::testing::ValuesIn(conservation_cases()),
                         conservation_name);

// ------------------------------------------------------------- determinism

TEST(DeterminismTest, IdenticalInputsIdenticalReports) {
    ClusterSpec cluster;
    cluster.nodes = 4;
    cluster.workers_per_node = 8;
    const WorkloadTrace trace = make_trace(WorkloadKind::Bimodal, 20000, 1e-4, 0.9);
    SimConfig cfg;
    cfg.inter = Technique::GSS;
    cfg.intra = Technique::SS;
    const auto a = simulate(ExecModel::MpiMpi, cluster, cfg, trace);
    const auto b = simulate(ExecModel::MpiMpi, cluster, cfg, trace);
    EXPECT_EQ(a.parallel_time, b.parallel_time);  // bitwise
    for (std::size_t i = 0; i < a.workers.size(); ++i) {
        EXPECT_EQ(a.workers[i].finish, b.workers[i].finish);
        EXPECT_EQ(a.workers[i].iterations, b.workers[i].iterations);
    }
}

// ------------------------------------------------- model behaviours (paper)

TEST(ModelBehaviourTest, DynamicBeatsStaticOnImbalancedWork) {
    ClusterSpec cluster;
    cluster.nodes = 2;
    cluster.workers_per_node = 8;
    const WorkloadTrace trace = make_trace(WorkloadKind::Exponential, 16000, 1e-3, 1.0);
    SimConfig stat;
    stat.inter = Technique::Static;
    stat.intra = Technique::Static;
    SimConfig dyn;
    dyn.inter = Technique::GSS;
    dyn.intra = Technique::GSS;
    const auto t_static = simulate(ExecModel::MpiMpi, cluster, stat, trace).parallel_time;
    const auto t_dynamic = simulate(ExecModel::MpiMpi, cluster, dyn, trace).parallel_time;
    EXPECT_LT(t_dynamic, t_static);
}

TEST(ModelBehaviourTest, BarrierIdleMakesHybridLoseWithStaticIntra) {
    // The paper's headline (GSS+STATIC, Figure 5): per-chunk implicit
    // barriers under MPI+OpenMP waste the fast threads' time on workloads
    // with *spatially correlated* imbalance (static slices of a chunk then
    // differ wildly); MPI+MPI has no such barrier. An iid workload would
    // not show this — slice sums self-average — so the test uses the real
    // Mandelbrot cost profile the paper's evaluation relies on.
    ClusterSpec cluster;
    cluster.nodes = 2;
    cluster.workers_per_node = 16;
    hdls::apps::MandelbrotConfig mc;
    mc.width = 256;
    mc.height = 256;
    mc.max_iter = 256;
    mc.re_min = -2.1;
    mc.re_max = 0.9;
    mc.im_min = -2.0;
    mc.im_max = 1.0;
    const WorkloadTrace trace(hdls::apps::mandelbrot_cost_trace(mc, 8e-6));
    SimConfig cfg;
    cfg.inter = Technique::GSS;
    cfg.intra = Technique::Static;
    const auto mm = simulate(ExecModel::MpiMpi, cluster, cfg, trace);
    const auto hy = simulate(ExecModel::MpiOpenMp, cluster, cfg, trace);
    EXPECT_GT(hy.parallel_time, 1.15 * mm.parallel_time);
    EXPECT_GT(hy.total_idle(), 3.0 * mm.total_idle());
}

TEST(ModelBehaviourTest, LockPollingMakesMpiMpiLoseWithSsIntra) {
    // The paper's counterpoint (Figures 4-7, SS panels): per-iteration
    // MPI_Win_lock epochs under MPI+MPI collapse against OpenMP's atomic
    // dequeues when iterations are fine-grained.
    ClusterSpec cluster;
    cluster.nodes = 2;
    cluster.workers_per_node = 16;
    const WorkloadTrace trace = make_trace(WorkloadKind::Constant, 40000, 1e-4, 0.0);
    SimConfig cfg;
    cfg.inter = Technique::Static;
    cfg.intra = Technique::SS;
    const auto mm = simulate(ExecModel::MpiMpi, cluster, cfg, trace);
    const auto hy = simulate(ExecModel::MpiOpenMp, cluster, cfg, trace);
    EXPECT_GT(mm.parallel_time, 1.3 * hy.parallel_time);
    EXPECT_GT(mm.total_lock_wait(), hy.total_lock_wait());
}

TEST(ModelBehaviourTest, CoarseIntraTechniquesTieAcrossModels) {
    // Away from the two extremes the models should roughly coincide
    // (paper: "the same performance compared to their counterparts").
    ClusterSpec cluster;
    cluster.nodes = 4;
    cluster.workers_per_node = 16;
    const WorkloadTrace trace = make_trace(WorkloadKind::Exponential, 60000, 5e-4, 1.0);
    for (const Technique intra : {Technique::GSS, Technique::TSS, Technique::FAC2}) {
        SimConfig cfg;
        cfg.inter = Technique::GSS;
        cfg.intra = intra;
        const auto mm = simulate(ExecModel::MpiMpi, cluster, cfg, trace);
        const auto hy = simulate(ExecModel::MpiOpenMp, cluster, cfg, trace);
        const double ratio = mm.parallel_time / hy.parallel_time;
        EXPECT_GT(ratio, 0.8) << hdls::dls::technique_name(intra);
        EXPECT_LT(ratio, 1.2) << hdls::dls::technique_name(intra);
    }
}

TEST(ModelBehaviourTest, PollIntervalDrivesTheSsPenalty) {
    // Ablation invariant: the SS penalty grows monotonically with the
    // lock-attempt polling period (ref [38]).
    ClusterSpec cluster;
    cluster.nodes = 2;
    cluster.workers_per_node = 16;
    const WorkloadTrace trace = make_trace(WorkloadKind::Constant, 20000, 1e-4, 0.0);
    SimConfig cfg;
    cfg.inter = Technique::GSS;
    cfg.intra = Technique::SS;
    double last = 0.0;
    for (const double poll : {0.5, 2.0, 8.0}) {
        cluster.costs.shmem_lock_poll_us = poll;
        const auto r = simulate(ExecModel::MpiMpi, cluster, cfg, trace);
        EXPECT_GT(r.parallel_time, last);
        last = r.parallel_time;
    }
}

TEST(ModelBehaviourTest, MoreNodesShrinkTheParallelTime) {
    const WorkloadTrace trace = make_trace(WorkloadKind::Exponential, 100000, 5e-4, 1.0);
    SimConfig cfg;
    cfg.inter = Technique::GSS;
    cfg.intra = Technique::GSS;
    double last = std::numeric_limits<double>::infinity();
    for (const int nodes : {2, 4, 8, 16}) {
        ClusterSpec cluster;
        cluster.nodes = nodes;
        cluster.workers_per_node = 16;
        const auto r = simulate(ExecModel::MpiMpi, cluster, cfg, trace);
        EXPECT_LT(r.parallel_time, last) << nodes;
        last = r.parallel_time;
    }
}

TEST(ModelBehaviourTest, MinChunkReducesSchedulingEvents) {
    ClusterSpec cluster;
    cluster.nodes = 2;
    cluster.workers_per_node = 8;
    const WorkloadTrace trace = make_trace(WorkloadKind::Constant, 10000, 1e-4, 0.0);
    SimConfig fine;
    fine.inter = Technique::GSS;
    fine.intra = Technique::SS;
    SimConfig coarse = fine;
    coarse.min_chunk = 32;
    const auto rf = simulate(ExecModel::MpiMpi, cluster, fine, trace);
    const auto rc = simulate(ExecModel::MpiMpi, cluster, coarse, trace);
    EXPECT_GT(rf.sub_chunks(), 4 * rc.sub_chunks());
    EXPECT_GT(rf.total_overhead(), rc.total_overhead());
}

// ---------------------------------------------------------------- validation

TEST(SimValidationTest, BadInputsThrow) {
    ClusterSpec cluster;
    const WorkloadTrace trace = make_trace(WorkloadKind::Constant, 10, 1e-3, 0.0);
    SimConfig cfg;
    // Adaptive techniques are valid at the inter level (remaining-based
    // form) but have no step-indexed form for the intra level.
    cfg.intra = Technique::AWFB;
    EXPECT_THROW((void)simulate(ExecModel::MpiMpi, cluster, cfg, trace),
                 std::invalid_argument);
    cfg.intra = Technique::GSS;
    cfg.inter = Technique::WF;
    cfg.inter_weights = {1.0, 2.0, 3.0};  // cluster has 2 nodes
    EXPECT_THROW((void)simulate(ExecModel::MpiMpi, cluster, cfg, trace),
                 std::invalid_argument);
    cfg.inter_weights.clear();
    cluster.node_speed = {1.0};  // must match the node count
    EXPECT_THROW((void)simulate(ExecModel::MpiMpi, cluster, cfg, trace),
                 std::invalid_argument);
    cluster.node_speed = {1.0, 0.0};  // speeds must be positive
    EXPECT_THROW((void)simulate(ExecModel::MpiMpi, cluster, cfg, trace),
                 std::invalid_argument);
    cluster.node_speed.clear();
    cfg.inter = Technique::GSS;
    cfg.min_chunk = 0;
    EXPECT_THROW((void)simulate(ExecModel::MpiMpi, cluster, cfg, trace),
                 std::invalid_argument);
    cfg.min_chunk = 1;
    cluster.nodes = 0;
    EXPECT_THROW((void)simulate(ExecModel::MpiMpi, cluster, cfg, trace),
                 std::invalid_argument);
    cluster.nodes = 2;
    cluster.costs.internode_rma_us = -1.0;
    EXPECT_THROW((void)simulate(ExecModel::MpiMpi, cluster, cfg, trace),
                 std::invalid_argument);
}

TEST(SimValidationTest, EmptyTraceYieldsZeroReport) {
    ClusterSpec cluster;
    SimConfig cfg;
    const WorkloadTrace empty;
    for (const ExecModel m : {ExecModel::MpiMpi, ExecModel::MpiOpenMp}) {
        const auto r = simulate(m, cluster, cfg, empty);
        EXPECT_EQ(r.parallel_time, 0.0) << exec_model_name(m);
        EXPECT_EQ(r.executed_iterations(), 0);
    }
}

TEST(SimValidationTest, ExecModelNames) {
    EXPECT_EQ(exec_model_from_string("MPI+MPI"), ExecModel::MpiMpi);
    EXPECT_EQ(exec_model_from_string("mpi+openmp"), ExecModel::MpiOpenMp);
    EXPECT_EQ(exec_model_from_string("???"), std::nullopt);
    // The nowait model has no executor, so the simulator does not price it.
    EXPECT_EQ(exec_model_from_string("nowait"), std::nullopt);
    EXPECT_EQ(exec_model_from_string("mpi+openmp-nowait"), std::nullopt);
    EXPECT_EQ(exec_model_name(ExecModel::MpiOpenMp), "MPI+OpenMP");
}

TEST(SimReportTest, PrintsSummary) {
    ClusterSpec cluster;
    const WorkloadTrace trace = make_trace(WorkloadKind::Constant, 1000, 1e-4, 0.0);
    SimConfig cfg;
    const auto r = simulate(ExecModel::MpiMpi, cluster, cfg, trace);
    std::ostringstream oss;
    r.print(oss);
    EXPECT_NE(oss.str().find("T_par="), std::string::npos);
    EXPECT_NE(oss.str().find("efficiency="), std::string::npos);
}

// ----------------------------------------------------------- golden pricing

/// The fields a golden digest covers, in the order a mismatch names them.
constexpr std::array<std::string_view, 19> kGoldenFields = {
    "parallel_time",     "worker.node",      "worker.worker_in_node",
    "worker.busy",       "worker.overhead",  "worker.lock_wait",
    "worker.idle",       "worker.finish",    "worker.iterations",
    "worker.sub_chunks", "worker.global_refills",
    "event.kind",        "event.worker",     "event.level",
    "event.a",           "event.b",          "event.t0",
    "event.t1",          "event.wait"};
/// parallel_time and the SimWorker fields: the part tracing must not move.
constexpr std::size_t kReportFields = 11;

/// One FNV-1a stream per field, for N fields. Doubles enter by their bit
/// pattern, so a digest pins a priced time bit for bit.
template <std::size_t N>
class FieldDigests {
public:
    FieldDigests() { hashes_.fill(kOffset); }

    template <typename T>
    void add(std::size_t field, T value) {
        std::uint64_t bits = 0;
        if constexpr (std::is_floating_point_v<T>) {
            bits = std::bit_cast<std::uint64_t>(static_cast<double>(value));
        } else {
            bits = static_cast<std::uint64_t>(value);
        }
        hashes_[field] = mix(hashes_[field], bits);
    }

    [[nodiscard]] std::uint64_t field(std::size_t f) const { return hashes_[f]; }

    /// "<digest of every field>.<one byte per field>": the first part
    /// decides equality, the bytes name the first field that differs.
    [[nodiscard]] std::string str() const {
        std::uint64_t all = kOffset;
        for (const std::uint64_t h : hashes_) {
            all = mix(all, h);
        }
        char buf[16 + 1 + 2 * N + 1];
        int at = std::snprintf(buf, sizeof buf, "%016llx.", static_cast<unsigned long long>(all));
        for (const std::uint64_t h : hashes_) {
            at += std::snprintf(buf + at, sizeof buf - static_cast<std::size_t>(at), "%02x",
                                static_cast<unsigned>(h & 0xFF));
        }
        return buf;
    }

private:
    static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
    static std::uint64_t mix(std::uint64_t h, std::uint64_t bits) {
        for (int i = 0; i < 8; ++i) {
            h = (h ^ ((bits >> (8 * i)) & 0xFF)) * 0x100000001b3ULL;
        }
        return h;
    }
    std::array<std::uint64_t, N> hashes_{};
};

using ReportDigests = FieldDigests<kGoldenFields.size()>;

ReportDigests report_digests(const SimReport& r) {
    ReportDigests d;
    d.add(0, r.parallel_time);
    for (const SimWorker& w : r.workers) {
        d.add(1, w.node);
        d.add(2, w.worker_in_node);
        d.add(3, w.busy);
        d.add(4, w.overhead);
        d.add(5, w.lock_wait);
        d.add(6, w.idle);
        d.add(7, w.finish);
        d.add(8, w.iterations);
        d.add(9, w.sub_chunks);
        d.add(10, w.global_refills);
    }
    if (r.trace) {
        for (const hdls::trace::Event& e : r.trace->events) {
            d.add(11, static_cast<int>(e.kind));
            d.add(12, e.worker);
            d.add(13, e.level);
            d.add(14, e.a);
            d.add(15, e.b);
            d.add(16, e.t0);
            d.add(17, e.t1);
            d.add(18, e.wait);
        }
    }
    return d;
}

/// Names the first field whose byte differs between two digest strings.
std::string first_differing_field(std::span<const std::string_view> fields,
                                  std::string_view expected, std::string_view got) {
    if (expected.size() != got.size()) {
        return "the digest's format (the lengths differ)";
    }
    for (std::size_t f = 0; f < fields.size(); ++f) {
        const std::size_t at = 17 + 2 * f;
        if (expected.substr(at, 2) != got.substr(at, 2)) {
            return std::string(fields[f]);
        }
    }
    return "a field whose byte collides (the full digest differs)";
}

struct GoldenConfig {
    std::string name;
    ExecModel model;
    ClusterSpec cluster;
    SimConfig config;
};

/// Both execution models over the paper's 4 inter x 5 intra grid on 2 and
/// 4 nodes, a 3-level tree with a centralized and a sharded relay, a
/// sharded root, min_chunk, free scheduling, and an AWF-B root on a
/// cluster with a slow node.
std::vector<GoldenConfig> golden_configs() {
    using hdls::dls::InterBackend;
    using hdls::dls::technique_name;
    std::vector<GoldenConfig> out;
    const auto classic = [](int nodes) {
        ClusterSpec c;
        c.nodes = nodes;
        c.workers_per_node = 4;
        return c;
    };
    for (const ExecModel m : {ExecModel::MpiMpi, ExecModel::MpiOpenMp}) {
        const auto add = [&](std::string name, ClusterSpec cluster, SimConfig config) {
            out.push_back({std::string(exec_model_name(m)) + " " + name, m, std::move(cluster),
                           std::move(config)});
        };
        for (const int nodes : {2, 4}) {
            for (const Technique inter : hdls::dls::paper_internode_techniques()) {
                for (const Technique intra : hdls::dls::paper_intranode_techniques()) {
                    SimConfig cfg;
                    cfg.inter = inter;
                    cfg.intra = intra;
                    add(std::string(technique_name(inter)) + "+" +
                            std::string(technique_name(intra)) + " " +
                            std::to_string(nodes) + "n",
                        classic(nodes), cfg);
                }
            }
        }
        for (const InterBackend mid : {InterBackend::Centralized, InterBackend::Sharded}) {
            ClusterSpec c;
            c.nodes = 4;
            c.workers_per_node = 3;
            c.tree = {{"racks", 2}, {"nodes", 2}, {"cores", 3}};
            c.costs.level_rma_us = {6.0, 3.0};
            SimConfig cfg;
            cfg.levels = {{Technique::FAC2, std::nullopt},
                          {Technique::GSS, mid},
                          {Technique::SS, std::nullopt}};
            add(std::string("tree FAC2+GSS/") + std::string(hdls::dls::inter_backend_name(mid)) +
                    "+SS",
                c, cfg);
        }
        SimConfig sharded;
        sharded.inter = Technique::GSS;
        sharded.inter_backend = InterBackend::Sharded;
        sharded.intra = Technique::SS;
        add("GSS/sharded+SS 4n", classic(4), sharded);
        SimConfig min_chunk;
        min_chunk.inter = Technique::FAC2;
        min_chunk.intra = Technique::SS;
        min_chunk.min_chunk = 4;
        add("FAC2+SS 2n min_chunk 4", classic(2), min_chunk);
        // Free scheduling: events of one worker tie in time, so the
        // merged trace keeps each log's record order.
        ClusterSpec free = classic(2);
        free.costs = zero_costs();
        SimConfig ties;
        ties.inter = Technique::FAC2;
        ties.intra = Technique::SS;
        add("FAC2+SS 2n free scheduling", free, ties);
        ClusterSpec slow = classic(2);
        slow.node_speed = {1.0, 0.5};
        for (const Technique intra : {Technique::SS, Technique::GSS}) {
            SimConfig awf;
            awf.inter = Technique::AWFB;
            awf.intra = intra;
            add("AWF-B+" + std::string(technique_name(intra)) + " 2n slow node", slow, awf);
        }
    }
    return out;
}

/// A small irregular trace built from integer arithmetic only: the first
/// third of the loop is four times as expensive as the rest.
WorkloadTrace golden_trace() {
    constexpr std::int64_t kN = 1500;
    std::vector<double> costs(static_cast<std::size_t>(kN));
    for (std::int64_t i = 0; i < kN; ++i) {
        costs[static_cast<std::size_t>(i)] =
            1e-6 * static_cast<double>((1 + (i * 37) % 23) * (i < kN / 3 ? 4 : 1));
    }
    return WorkloadTrace(std::move(costs));
}

/// Digests recorded before the simulator's queue and sub-chunk code was
/// consolidated. A mismatch prints the first field that differs and the
/// new digest; replace a line only for a deliberate pricing change.
constexpr std::pair<std::string_view, std::string_view> kGolden[] = {
    {"MPI+MPI STATIC+STATIC 2n", "59528e5c3fd268f9.71e5254ada79259965a5a5646385ccbbc81ad9"},
    {"MPI+MPI STATIC+SS 2n", "067bc86b0268847e.2de52583cb5825efededa5e42605518e5c051a"},
    {"MPI+MPI STATIC+GSS 2n", "bd2ea584c8d4d09e.71e5257940792557f64fa56420e551be0917d9"},
    {"MPI+MPI STATIC+TSS 2n", "8f59be170cc4b741.dee5256ab90925ab1c87a524804598378ef771"},
    {"MPI+MPI STATIC+FAC2 2n", "72c51a96e4abf98d.7ce5253ab11e25eb7241a504c5256eb10a57bf"},
    {"MPI+MPI GSS+STATIC 2n", "df1b08ab2b0422db.71e5254e9ff0250ce16f230445c5bb48501306"},
    {"MPI+MPI GSS+SS 2n", "456ebf869a083fb0.3de525b67e8025e5dfdfc784e3e595563ed4fe"},
    {"MPI+MPI GSS+GSS 2n", "3e6642ed70c33205.71e52577fd6225ed16b6e1a4a6444e9983b875"},
    {"MPI+MPI GSS+TSS 2n", "63d8e7db79071adb.dee525bcd153250c50214724224550b3ff52a6"},
    {"MPI+MPI GSS+FAC2 2n", "797d2a9802968635.7ce525fa7a0325e9f2e5410446457700da9105"},
    {"MPI+MPI TSS+STATIC 2n", "c936ddd6467d2350.0ee525af087925d1f1ebc4840264b318d8b6d9"},
    {"MPI+MPI TSS+SS 2n", "a0060cb2ea470354.2de5256710ff25732f2f66e4e5c4712a8b10f0"},
    {"MPI+MPI TSS+GSS 2n", "63559b72884c562a.c3e5253ccaf425c5b1d6e404c02507a83ed8fa"},
    {"MPI+MPI TSS+TSS 2n", "c725654a37b2b7e5.05e5251f936025d56d0b8644c4e496d9e48818"},
    {"MPI+MPI TSS+FAC2 2n", "3422c6665eba248e.e7e525d1a0b3256dd2e3c4c4c4445867e18f91"},
    {"MPI+MPI FAC2+STATIC 2n", "efb12a11e92e104a.a6e525fd743625cbe88b6464c7c4aee5e575f8"},
    {"MPI+MPI FAC2+SS 2n", "bab8ecd95ce60147.9be525366f892504a7a78264c0c42dfa16b46e"},
    {"MPI+MPI FAC2+GSS 2n", "273f815a405d7825.69e52584e87325bc2c1920442304616e1d88a0"},
    {"MPI+MPI FAC2+TSS 2n", "724e70b654f166ff.8ae5250f2e4c254ccd7d20842084c9ba2a7165"},
    {"MPI+MPI FAC2+FAC2 2n", "c6d4f82d717099d8.61e525abef1725172ff9e6c402e42d3e3c4780"},
    {"MPI+MPI STATIC+STATIC 4n", "dd862bf3be20bc49.7fa525e0b503251925252524cdc5c05b94d22b"},
    {"MPI+MPI STATIC+SS 4n", "f99316b4d8222ee7.81a52526bd9f253ac1c125a4ecc54dce9ec7dc"},
    {"MPI+MPI STATIC+GSS 4n", "f996dabfa82d5ec1.cca525afa13525ada1852524cca56324630415"},
    {"MPI+MPI STATIC+TSS 4n", "d512d3b4032fd3db.08a525b4a896256625a525646c4541b6734965"},
    {"MPI+MPI STATIC+FAC2 4n", "44ecc1c95e3cad1e.f2a52531071825c8a3a125c46d4580f7a4459d"},
    {"MPI+MPI GSS+STATIC 4n", "b5cb1ae634582697.97a5251ebd752557876b22c40a047784fe32f9"},
    {"MPI+MPI GSS+SS 4n", "b0e41879585d7b7a.81a525cb385625891313200484643daef0859f"},
    {"MPI+MPI GSS+GSS 4n", "2cbf0aa2094b93e7.cca525e053f12597bd20e0a4aba592dd74ba49"},
    {"MPI+MPI GSS+TSS 4n", "00fcba7ee1bc4eca.08a525e7e67c25a5bba52644c7e4b596a85777"},
    {"MPI+MPI GSS+FAC2 4n", "85a61f9b17cf1100.f2a525d34a0725daa32586642ec459ae19c2ca"},
    {"MPI+MPI TSS+STATIC 4n", "a9105d11c6beef58.d0a52528193625332f63a0e48144e0eb054a5c"},
    {"MPI+MPI TSS+SS 4n", "ab78bbcc76af3b4e.77a525217b032534838366840984a9be9fadaa"},
    {"MPI+MPI TSS+GSS 4n", "5ce821ce7a1e80f1.7ba5259cf41025d173d782a4a38498df598e74"},
    {"MPI+MPI TSS+TSS 4n", "ab0bcdffa9f3fe7f.baa525a1e21f25c9972540242ac42cabf86187"},
    {"MPI+MPI TSS+FAC2 4n", "bd18b13cf558720d.66a5250efc36256441ef2424c42407602626e3"},
    {"MPI+MPI FAC2+STATIC 4n", "c9a8e70b0fd38a14.c3a5256f6d74250851db05840fe56c33027ae8"},
    {"MPI+MPI FAC2+SS 4n", "a6059105a8b083a5.bea5251cab6625a6d7d7270464e59d0a6cea84"},
    {"MPI+MPI FAC2+GSS 4n", "a356a3c1efe9f5dd.47a525073db625b69b01c1c42aa581b6c3533c"},
    {"MPI+MPI FAC2+TSS 4n", "40b75d062fd6fe0d.a3a52530d13925be2f2107646a857aa94f3601"},
    {"MPI+MPI FAC2+FAC2 4n", "ac60606287c8265c.03a52568f61425de6385c364282525bef7ed28"},
    {"MPI+MPI tree FAC2+GSS/centralized+SS",
     "ad042d36b4d89171.74a565703a26a500b5b50dc4868569422614b1"},
    {"MPI+MPI tree FAC2+GSS/sharded+SS", "c55ab3c7da442a5c.a2a56502b2d4a5a1bbbbcf84eee5a53eadf034"},
    {"MPI+MPI GSS/sharded+SS 4n", "34788f657f7af595.02a5251e6e382504bfbf250d8625e572fc0c30"},
    {"MPI+MPI FAC2+SS 2n min_chunk 4", "19da67eb0f817996.02e5259f45ba25372727a3c40725e902c6d4ad"},
    {"MPI+MPI FAC2+SS 2n free scheduling",
     "d29918d643b8b597.24e525aa252525aa6b6bc604a10481c2181805"},
    {"MPI+MPI AWF-B+SS 2n slow node", "c4bd22f094d4ca1c.e2e5257b340d25d8a1a10624a3e4d1de9c7f79"},
    {"MPI+MPI AWF-B+GSS 2n slow node",
     "d41d41a67ea24796.80e525eb26b625c2ffae87a4c44412357d14a9"},
    {"MPI+OpenMP STATIC+STATIC 2n", "411c00b328257634.d3e5254af325db7565a5a5850505255d01c005"},
    {"MPI+OpenMP STATIC+SS 2n", "7b17e35cc6d59911.36e525368e57fd15a9a9a505076561663b3cd7"},
    {"MPI+OpenMP STATIC+GSS 2n", "2d5a0d23c9cc502b.cae5251f6a417575f60da5c5268509267f9cc1"},
    {"MPI+OpenMP STATIC+TSS 2n", "a0418de515d52e65.fde5259c0e41ddfdfaa7a5c507c5145b764e41"},
    {"MPI+OpenMP STATIC+FAC2 2n", "08c59043ab8ff9d6.49e525335941405d6a43a545408572493cea01"},
    {"MPI+OpenMP GSS+STATIC 2n", "10b90ad73bc75449.d3e5251bd925643d654bade525053438165b05"},
    {"MPI+OpenMP GSS+SS 2n", "a74319eb2601c501.36e525967bb701dd8585ad858645145378c6c5"},
    {"MPI+OpenMP GSS+GSS 2n", "14b5cb10bec3df2d.cae525ce589330c5666cad8561c4d3b49672e1"},
    {"MPI+OpenMP GSS+TSS 2n", "67f0183eba4bee5e.fde5256a429330b55207ad45c685499afbb041"},
    {"MPI+OpenMP GSS+FAC2 2n", "e0acea3d477116ac.49e525187093293592a5adc52145da81e4f881"},
    {"MPI+OpenMP TSS+STATIC 2n", "a1b536e00d26281e.60e525403425ca75ab652265e12552f2cb1f25"},
    {"MPI+OpenMP TSS+SS 2n", "dd818dbb0da0859e.aae5256d728e8dbd8f8fa2e524251e8112d31f"},
    {"MPI+OpenMP TSS+GSS 2n", "998a2bf985d0893b.e7e525d0ddb0e11d3ba22225c1a4f0d30b37bb"},
    {"MPI+OpenMP TSS+TSS 2n", "0330b0f93bdfc6e1.5ee525548375eb0dfa2322656545bd16187ad9"},
    {"MPI+OpenMP TSS+FAC2 2n", "cc218620f63b10e3.04e5252faf75e66dad6d22e50725fb6cc48a99"},
    {"MPI+OpenMP FAC2+STATIC 2n", "51971fec8719becf.0fe525f39b2574d585c5a40501659fab8a6465"},
    {"MPI+OpenMP FAC2+SS 2n", "b0f38c96489f072d.8de5252fe86eaa2531312c25c54553a82eeada"},
    {"MPI+OpenMP FAC2+GSS 2n", "35b943e7d28f8116.d2e5253c5ca3371d4d01a46502255be806e268"},
    {"MPI+OpenMP FAC2+TSS 2n", "b4d88bc07a469fed.cae5256830758fad372dace54585cb1cb73f57"},
    {"MPI+OpenMP FAC2+FAC2 2n", "b898ac6ce59a774f.78e525184f32c055e1992ce500c58778ae8213"},
    {"MPI+OpenMP STATIC+STATIC 4n", "b303738ed815b3b8.98a525e0172517d5252525c5c9452059cdb945"},
    {"MPI+OpenMP STATIC+SS 4n", "8ffd80ffc44f8380.e4a525bcca0da295c3c325450e05905e7fe2e5"},
    {"MPI+OpenMP STATIC+GSS 4n", "58a39d29aa4398eb.dda52532958d7645bde125858ba576a89417ed"},
    {"MPI+OpenMP STATIC+TSS 4n", "7bcc295808e7a94d.4ca52573a68d391dc3452585ae85bcc24972ed"},
    {"MPI+OpenMP STATIC+FAC2 4n", "c9c8295b3ff3e5f0.1aa525820e8d74bd27e325458d252d9fd1faed"},
    {"MPI+OpenMP GSS+STATIC 4n", "9231fe3625d45fc2.0ca52515f125f62da74b244585a5f13ddbd5a5"},
    {"MPI+OpenMP GSS+SS 4n", "b3d2eaa9a2fbb9d6.e4a5256a003af925d1d1a465ec858d367768a1"},
    {"MPI+OpenMP GSS+GSS 4n", "27cd8b432f490703.dda525537b24848d6540a4a5ec44eaf946b537"},
    {"MPI+OpenMP GSS+TSS 4n", "0ba74ce0331735cd.4ca5255348689ead3fa3a4e50f452136794617"},
    {"MPI+OpenMP GSS+FAC2 4n", "0fd5bb961841524c.1aa5250b9d46df3d9389a4a5c205c54e2409f7"},
    {"MPI+OpenMP TSS+STATIC 4n", "a13972ec1375fb72.01a52502262557cdb585208581a52abb4f08a5"},
    {"MPI+OpenMP TSS+SS 4n", "77cfa024c8ba0cef.cea525c9b896d60da3a3a6e50945ee745eaefd"},
    {"MPI+OpenMP TSS+GSS 4n", "322958c0e15fe1bc.99a525f038b4d7c5d7bf20a527059ffdcebe05"},
    {"MPI+OpenMP TSS+TSS 4n", "88d550e7c1ab6315.ffa5251927324a0db1a5a665c1a5835d6b9585"},
    {"MPI+OpenMP TSS+FAC2 4n", "3a9faa7f70e04fcc.b4a5259d08071fc5a527a6658d05d47a7fe18b"},
    {"MPI+OpenMP FAC2+STATIC 4n", "a2c1ebffa2d0bc7e.f1a5253a1725953da3e72d452185b8f15ad685"},
    {"MPI+OpenMP FAC2+SS 4n", "1be574ed8ebdf254.d3a52585070e01dd5151a1058c852caa16f325"},
    {"MPI+OpenMP FAC2+GSS 4n", "2b8f0570d2f8e66f.6da5256e03d37e7d5d932d0580c54c6286e6cd"},
    {"MPI+OpenMP FAC2+TSS 4n", "7f89b7d82563d8e7.60a525df48fede755549a1c589c54b590d7951"},
    {"MPI+OpenMP FAC2+FAC2 4n", "5a2be8dbf48f13fe.f9a52574ee11f8b583452385ace5f0d2bd1feb"},
    {"MPI+OpenMP tree FAC2+GSS/centralized+SS",
     "8a9beab1a0790f93.72a565a4f09768786d6d79852225252612ca1d"},
    {"MPI+OpenMP tree FAC2+GSS/sharded+SS",
     "8259741ccb369c18.86a565ec228d99640909fe8d6666526263d706"},
    {"MPI+OpenMP GSS/sharded+SS 4n", "fccaf8d2d987fe3d.b6a52535d4d2da9d1515bc4ca3c5043ae1121b"},
    {"MPI+OpenMP FAC2+SS 2n min_chunk 4",
     "64c6d669f9aef23f.97e5253df22c7fadbbe5abc543a5053e192c59"},
    {"MPI+OpenMP FAC2+SS 2n free scheduling",
     "3a6f1da9a3c45ea0.b8e5255b2525bf2d2d2dacc5e785e74cbce465"},
    {"MPI+OpenMP AWF-B+SS 2n slow node", "1eed1f84abffb78b.3ee5259076d93c454545a0258605afe2e1a4db"},
    {"MPI+OpenMP AWF-B+GSS 2n slow node",
     "e0cf75839e79c376.0fe525e053551cd58d0fae25e3852cb6e2ce59"},
};

TEST(GoldenPricingTest, EveryPricedTimeAndTraceEventMatchesItsDigest) {
    const std::map<std::string_view, std::string_view> golden(std::begin(kGolden),
                                                              std::end(kGolden));
    const WorkloadTrace trace = golden_trace();
    std::vector<GoldenConfig> configs = golden_configs();
    EXPECT_EQ(configs.size(), golden.size());
    for (GoldenConfig& g : configs) {
        SCOPED_TRACE(g.name);
        const SimReport plain = simulate(g.model, g.cluster, g.config, trace);
        g.config.trace = true;
        const SimReport traced = simulate(g.model, g.cluster, g.config, trace);
        ASSERT_NE(traced.trace, nullptr);
        ASSERT_EQ(traced.trace->dropped(), 0);
        ASSERT_EQ(traced.executed_iterations(), trace.iterations());
        const ReportDigests untraced_digests = report_digests(plain);
        const ReportDigests digests = report_digests(traced);
        for (std::size_t f = 0; f < kReportFields; ++f) {
            EXPECT_EQ(untraced_digests.field(f), digests.field(f))
                << "tracing changed " << kGoldenFields[f];
        }
        const std::string got = digests.str();
        const auto it = golden.find(g.name);
        if (it == golden.end()) {
            ADD_FAILURE() << "no golden digest; expected line:\n    {\"" << g.name << "\", \""
                          << got << "\"},";
            continue;
        }
        EXPECT_EQ(got, it->second) << "first field that differs: "
                                   << first_differing_field(kGoldenFields, it->second, got);
    }
}

// ---------------------------------------------------------- golden analysis

/// The TraceAnalysis fields an analysis digest covers. The run-level
/// scalars are grouped: "finish" holds makespan, mean_finish, max_finish,
/// percent_imbalance, finish_cov and max_over_mean; "totals" the four
/// total_* sums; "lock_wait_stats" every Summary field.
constexpr std::array<std::string_view, 22> kAnalysisFields = {
    "worker.worker",        "worker.node",         "worker.compute",
    "worker.sched_overhead", "worker.lock_wait",   "worker.barrier_wait",
    "worker.finish",        "worker.chunks",       "worker.iterations",
    "worker.global_chunks", "level.level",         "level.acquire_seconds",
    "level.acquires",       "level.steals",        "level.pop_seconds",
    "level.pops",           "level.lock_wait_seconds", "finish",
    "totals",               "prefetch",            "reclaimed",
    "lock_wait_stats"};

using AnalysisDigests = FieldDigests<kAnalysisFields.size()>;

AnalysisDigests analysis_digests(const hdls::trace::TraceAnalysis& a) {
    AnalysisDigests d;
    d.add(0, a.workers.size());
    for (const hdls::trace::WorkerBreakdown& w : a.workers) {
        d.add(0, w.worker);
        d.add(1, w.node);
        d.add(2, w.compute);
        d.add(3, w.sched_overhead);
        d.add(4, w.lock_wait);
        d.add(5, w.barrier_wait);
        d.add(6, w.finish);
        d.add(7, w.chunks);
        d.add(8, w.iterations);
        d.add(9, w.global_chunks);
    }
    d.add(10, a.levels.size());
    for (const hdls::trace::LevelOverhead& lo : a.levels) {
        d.add(10, lo.level);
        d.add(11, lo.acquire_seconds);
        d.add(12, lo.acquires);
        d.add(13, lo.steals);
        d.add(14, lo.pop_seconds);
        d.add(15, lo.pops);
        d.add(16, lo.lock_wait_seconds);
    }
    for (const double v : {a.makespan, a.mean_finish, a.max_finish, a.percent_imbalance,
                           a.finish_cov, a.max_over_mean}) {
        d.add(17, v);
    }
    for (const double v :
         {a.total_compute, a.total_sched_overhead, a.total_lock_wait, a.total_barrier_wait}) {
        d.add(18, v);
    }
    d.add(19, a.prefetch_hits);
    d.add(19, a.prefetch_misses);
    d.add(19, a.prefetch_hidden_seconds);
    d.add(20, a.reclaimed.size());
    for (const auto& [start, size] : a.reclaimed) {
        d.add(20, start);
        d.add(20, size);
    }
    d.add(20, a.reclaimed_iterations);
    const hdls::util::Summary& s = a.lock_wait_stats;
    d.add(21, s.count);
    for (const double v :
         {s.mean, s.stddev, s.cov, s.min, s.p25, s.median, s.p75, s.p99, s.max, s.sum}) {
        d.add(21, v);
    }
    return d;
}

/// Digests of trace::analyze over golden configurations' traces, recorded
/// from the std::map-based analysis that the flat single pass replaced.
/// Both models; sharded relays and roots (Steal events); AWF-B roots on a
/// slow node; a 3-level tree; and free scheduling, whose events tie in
/// time. The simulator records no FeedbackReport, Prefetch or Reclaim
/// events; test_trace's hand-built traces cover those kinds.
constexpr std::pair<std::string_view, std::string_view> kAnalysisGolden[] = {
    {"MPI+MPI FAC2+SS 4n", "6e6d15e2ea78dd4a.d5a51c6f6625a6d7d727a610fb65c8ca09509905658e"},
    {"MPI+OpenMP FAC2+SS 4n", "87d7d24d7d0dd3a2.d5a585000e4add5151a1a6c3fb6543ca594f9405653d"},
    {"MPI+MPI tree FAC2+GSS/sharded+SS",
     "5d3047a8a29d9722.c9a502d9d4a5a1bbbbcf259681098e6a67a72e0565cc"},
    {"MPI+MPI GSS/sharded+SS 4n", "ef752b7ab234d569.d5a54ace382504bfbf25a688d32071ca6083350565c8"},
    {"MPI+MPI AWF-B+SS 2n slow node",
     "38c6b033190b34b4.cde5e5fb0d25d8a1a106a6a0b265eccaa9c6bb0565de"},
    {"MPI+OpenMP AWF-B+GSS 2n slow node",
     "93e401bccbba7781.cde5e09e557dd50f8daea68eb66561a3f6d6e605653a"},
    {"MPI+MPI FAC2+SS 2n free scheduling",
     "b5050a8ffa5fa1b3.cde5aa252525aa6b6bc6a665346565ca654e6d0565d7"},
};

TEST(AnalysisGoldenTest, EveryAnalysisFieldMatchesItsDigest) {
    const WorkloadTrace trace = golden_trace();
    std::map<std::string_view, const GoldenConfig*> by_name;
    const std::vector<GoldenConfig> configs = golden_configs();
    for (const GoldenConfig& g : configs) {
        by_name.emplace(g.name, &g);
    }
    std::int64_t steals = 0;
    for (const auto& [name, digest] : kAnalysisGolden) {
        SCOPED_TRACE(name);
        const auto it = by_name.find(name);
        ASSERT_NE(it, by_name.end()) << "not a golden configuration";
        SimConfig cfg = it->second->config;
        cfg.trace = true;
        const SimReport r = simulate(it->second->model, it->second->cluster, cfg, trace);
        ASSERT_NE(r.trace, nullptr);
        ASSERT_EQ(r.trace->dropped(), 0);
        steals += r.trace->count(EventKind::Steal);
        const std::string got = analysis_digests(hdls::trace::analyze(*r.trace)).str();
        EXPECT_EQ(got, digest) << "first field that differs: "
                               << first_differing_field(kAnalysisFields, digest, got)
                               << "; got line:\n    {\"" << name << "\", \"" << got << "\"},";
    }
    // The chosen traces carry the kind only some configurations record.
    EXPECT_GT(steals, 0);
}

}  // namespace

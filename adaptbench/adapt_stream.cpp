/**
 * @file
 * Closed-loop adaptation-stream benchmark harness.
 *
 * One stream client feeds a model the next unlabeled batch only after
 * the predictions for the previous batch came back, like one camera
 * feeding an edge board. Each workload runs No-Adapt, BN-Norm and
 * BN-Opt in turn on the same seeded stream through the public API
 * (models::buildModel, adapt::makeMethod,
 * AdaptationMethod::processBatch, data::CorruptionStream).
 *
 * A run has four phases:
 *  1. set-up, repeated: build and train the model,
 *     construct every method and run its first batch;
 *  2. the timed window: untraced rounds of all three algorithms over
 *     the pre-generated stream until --seconds have elapsed; each
 *     stream batch keeps its best time over the rounds;
 *  3. output checks: finite logits, identical predictions on every
 *     round, a 1-thread replay of a stream slice, and
 *     the paper's error ordering where the workload asserts it;
 *  4. with --trace 1 only: one traced round with memory tracking and
 *     the synthetic energy meter on, split per layer from the spans
 *     the library already emits plus the harness's own spans. Traced
 *     runs also trace stream generation and set-up (never the timed
 *     window) and read those phases back from the harness's spans.
 *
 * The last stdout line is one JSON object: provenance, attempted and
 * failed batch counts, the checks, and every metric computed. run.py
 * builds this binary, applies the recorded error references and
 * prints the benchmark's result line.
 *
 * Usage:
 *   adapt_stream --workload NAME --seed N --seconds S --trace 0|1
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "adapt/method.hh"
#include "base/parallel.hh"
#include "data/stream.hh"
#include "device/cost_model.hh"
#include "models/registry.hh"
#include "nn/module.hh"
#include "obs/energy.hh"
#include "obs/json.hh"
#include "obs/memtrack.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "tensor/ops.hh"
#include "tensor/simd/dispatch.hh"
#include "train/trainer.hh"

using namespace edgeadapt;
using adapt::Algorithm;
using Clock = std::chrono::steady_clock;

namespace {

/// The paper's boards are quad-core (Ultra96 A53, RPi4 A72).
constexpr int kBoardThreads = 4;
/// Training seed shared with fig02_accuracy, so the tiny models are
/// the same network in every run; only the stream follows --seed.
constexpr uint64_t kTrainSeed = 20221;
constexpr int kTrainSteps = 300;
/// Set-up runs per benchmark run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Name of the harness's own span around processBatch.
constexpr const char *kBatchSpan = "bench.process_batch";

struct Workload
{
    const char *name;
    const char *model;   ///< registry name
    int64_t batch;
    /// Each corruption's stream is one segment: it starts from the
    /// pristine model, and the algorithms take turns segment by
    /// segment.
    std::vector<data::Corruption> corruptions;
    int batchesPerSegment;
    int tracedBatches;        ///< per segment, traced round only
    int checkBatches;         ///< 1-thread replay slice
    bool assertPaperOrdering; ///< No-Adapt error above both others
};

// Why each workload exists is recorded in README.md beside this file.
const std::vector<Workload> &
workloads()
{
    using data::Corruption;
    // Fig. 2 protocol over one corruption from each family: noise,
    // blur, weather, digital.
    const std::vector<Corruption> mixed = {
        Corruption::GaussianNoise, Corruption::DefocusBlur,
        Corruption::Fog, Corruption::Contrast};
    static const std::vector<Workload> w = {
        {"tiny-rxt-b50", "resnext29-tiny", 50, mixed, 25, 3, 2, true},
        {"tiny-wrn-b4", "wrn40_2-tiny", 4, mixed, 250, 12, 25, false},
    };
    return w;
}

const char *
algKey(Algorithm a)
{
    switch (a) {
      case Algorithm::NoAdapt:
        return "noadapt";
      case Algorithm::BnNorm:
        return "bnnorm";
      case Algorithm::BnOpt:
        return "bnopt";
    }
    return "?";
}

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

double
sum(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

/** Linear-interpolated quantile, q in [0, 1]. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * (double)(v.size() - 1);
    size_t lo = (size_t)pos;
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - (double)lo) * (v[hi] - v[lo]);
}

/** @return VmHWM of this process in MB, or 0 when unreadable. */
double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    }
    return 0.0;
}

/**
 * Run @p body inside the harness span @p name. @return its duration in
 * ms: read back from the span when tracing is on (the buffered events
 * are then dropped, so long set-up phases cannot wrap the rings), else
 * from the clock.
 */
template <typename F>
double
spanned(const char *name, F &&body)
{
    Clock::time_point t0 = Clock::now();
    {
        EA_TRACE_SPAN_CAT("bench", name);
        body();
    }
    double ms = msSince(t0);
    if (obs::tracingEnabled()) {
        for (const obs::TraceEvent &e : obs::collectTraceEvents()) {
            if (std::strcmp(e.name, name) == 0)
                ms = (double)e.durNs * 1e-6;
        }
        obs::clearTraceEvents();
    }
    return ms;
}

struct Metric
{
    double value;
    const char *unit;
    int64_t samples;
};

struct Check
{
    std::string name;
    bool ok;
    std::string detail;
};

/** Per-algorithm record of the untraced rounds. */
struct AlgRun
{
    int64_t timedBatches = 0;
    /// Best time (ms) of each stream batch over the rounds, indexed
    /// by the batch's position in the stream.
    std::vector<double> bestMs;
    std::vector<int> firstRoundPreds;
    int64_t correct = 0;
    int64_t samples = 0;
    int64_t failedBatches = 0;
    double makeMethodMs = 0.0;
    double firstBatchMs = 0.0;
};

/** Per-algorithm sums over the traced batches. */
struct TraceAgg
{
    std::vector<double> batchMs;
    double selfMs = 0, convFw = 0, convBw = 0, bnFw = 0, bnBw = 0;
    double fwMs = 0, bwMs = 0, entropyMs = 0, adamMs = 0;
    double gemmMs = 0, im2colMs = 0, forMs = 0, chunkMs = 0;
    int64_t gemmCalls = 0, forCalls = 0, spans = 0;
    int64_t allocs = 0, allocBytes = 0, peakBytes = 0;
    double joules = 0;
    /// caller-thread self time by layer: adapt, models, nn, tensor,
    /// parallel, train
    double layerSelf[6] = {};
    int64_t unbalancedBatches = 0; ///< self times not summing to batch
};

const char *const kLayerNames[6] = {"adapt", "models", "nn",
                                    "tensor", "parallel", "train"};

bool
isCat(const obs::TraceEvent &e, const char *cat)
{
    return e.cat && std::strcmp(e.cat, cat) == 0;
}

bool
nameStarts(const obs::TraceEvent &e, const char *prefix)
{
    return std::strncmp(e.name, prefix, std::strlen(prefix)) == 0;
}

int
layerOf(const obs::TraceEvent &e)
{
    if (isCat(e, "fw") || isCat(e, "bw")) {
        if (nameStarts(e, "Sequential") || nameStarts(e, "Residual"))
            return 1;
        return 2;
    }
    if (isCat(e, "tensor"))
        return 3;
    if (isCat(e, "parallel"))
        return 4;
    if (isCat(e, "train"))
        return 5;
    return 0;
}

/**
 * Fold the spans of one traced batch into @p a. Events arrive sorted
 * by (tid, start, -dur). Spans on the caller thread nest properly, so
 * a stack yields each span's self time; the self times of all caller
 * spans inside the harness span must add up to its duration.
 */
void
foldBatch(const std::vector<obs::TraceEvent> &ev, TraceAgg &a)
{
    const obs::TraceEvent *root = nullptr;
    for (const auto &e : ev) {
        if (std::strcmp(e.name, kBatchSpan) == 0)
            root = &e;
    }
    if (!root) {
        ++a.unbalancedBatches;
        return;
    }
    const int64_t b0 = root->startNs, b1 = root->endNs();
    a.batchMs.push_back((double)root->durNs * 1e-6);
    for (const auto &e : ev) {
        if (e.startNs < b0 || e.endNs() > b1)
            continue;
        ++a.spans;
        if (std::strcmp(e.name, "gemm") == 0) {
            a.gemmMs += (double)e.durNs * 1e-6;
            ++a.gemmCalls;
        } else if (std::strcmp(e.name, "im2col") == 0) {
            a.im2colMs += (double)e.durNs * 1e-6;
        } else if (std::strcmp(e.name, "parallel.chunk") == 0) {
            a.chunkMs += (double)e.durNs * 1e-6;
        }
    }

    struct Open
    {
        const obs::TraceEvent *e;
        int64_t childNs;
    };
    std::vector<Open> stack;
    int64_t selfSum = 0;
    bool negative = false;
    auto close = [&](const Open &o) {
        int64_t self = o.e->durNs - o.childNs;
        negative = negative || self < 0;
        selfSum += self;
        a.layerSelf[layerOf(*o.e)] += (double)self * 1e-6;
        if (o.e == root)
            a.selfMs += (double)self * 1e-6;
    };
    for (const auto &e : ev) {
        if (e.tid != root->tid || e.startNs < b0 || e.endNs() > b1)
            continue;
        while (!stack.empty() && stack.back().e->endNs() <= e.startNs) {
            close(stack.back());
            stack.pop_back();
        }
        const double ms = (double)e.durNs * 1e-6;
        if (!stack.empty()) {
            stack.back().childNs += e.durNs;
            if (stack.back().e == root) {
                if (isCat(e, "fw"))
                    a.fwMs += ms;
                else if (isCat(e, "bw"))
                    a.bwMs += ms;
                else if (std::strcmp(e.name, "train.entropy") == 0)
                    a.entropyMs += ms;
                else if (std::strcmp(e.name, "train.adam.step") == 0)
                    a.adamMs += ms;
            }
        }
        if (nameStarts(e, "Conv2d")) {
            (isCat(e, "fw") ? a.convFw : a.convBw) += ms;
        } else if (nameStarts(e, "BatchNorm2d")) {
            (isCat(e, "fw") ? a.bnFw : a.bnBw) += ms;
        } else if (std::strcmp(e.name, "parallel.for") == 0) {
            a.forMs += ms;
        }
        stack.push_back({&e, 0});
    }
    while (!stack.empty()) {
        close(stack.back());
        stack.pop_back();
    }
    if (negative || selfSum != root->durNs)
        ++a.unbalancedBatches;
}

class Bench
{
  public:
    Bench(const Workload &w, uint64_t seed, double seconds, bool trace)
        : w_(w), seed_(seed), seconds_(seconds), trace_(trace)
    {
    }

    void run();

  private:
    void generateStream();
    models::Model setUp(bool keep);
    void timedRounds();
    void runSegment(Algorithm a, size_t seg, AlgRun &r, bool firstRound);
    void replayAtOneThread();
    void tracedRound();
    void tracedAlg(Algorithm a, const obs::TraceSession &session,
                   TraceAgg &agg);
    void costModel();
    void addCheck(const std::string &name, bool ok,
                  const std::string &detail);

    void
    metric(const std::string &name, double v, const char *unit,
           int64_t samples)
    {
        metrics_[name] = Metric{v, unit, samples};
    }

    const Workload &w_;
    uint64_t seed_;
    double seconds_;
    bool trace_;
    int threads_ = 1;

    data::SynthCifar *dataset_ = nullptr;
    models::Model *model_ = nullptr;
    nn::ModelState pristine_;
    /// stream segments, generated before any timing
    std::vector<std::vector<data::Batch>> stream_;
    /// offset of each segment's first sample in the stream
    std::vector<size_t> segmentStart_;
    std::map<Algorithm, AlgRun> runs_;
    std::map<Algorithm, double> p50_; ///< reported untraced p50 (ms)
    std::map<Algorithm, TraceAgg> traced_;
    std::map<std::string, Metric> metrics_;
    std::vector<Check> checks_;
    int rounds_ = 0;
    uint64_t droppedEvents_ = 0;
};

void
Bench::generateStream()
{
    double genMs = 0;
    int64_t batches = 0;
    for (data::Corruption c : w_.corruptions) {
        data::StreamConfig sc;
        sc.corruption = c;
        sc.severity = 5;
        sc.batchSize = w_.batch;
        sc.totalSamples = w_.batch * w_.batchesPerSegment;
        Rng rng(seed_ * 1000003ull + (uint64_t)c * 7919ull);
        data::CorruptionStream s(*dataset_, sc, rng);
        segmentStart_.push_back((size_t)(batches * w_.batch));
        std::vector<data::Batch> out;
        for (int i = 0; i < w_.batchesPerSegment; ++i) {
            genMs += spanned("bench.stream_next",
                             [&] { out.push_back(s.next()); });
            ++batches;
        }
        stream_.push_back(std::move(out));
    }
    metric("data.gen_ms_per_batch", genMs / (double)batches, "ms", batches);
}

/**
 * One set-up: build (and train) the model, then construct every
 * method on it and run its first batch. Each method starts from the
 * pristine state, like the timed rounds.
 */
models::Model
Bench::setUp(bool keep)
{
    Rng rng(kTrainSeed);
    std::optional<models::Model> m;
    double buildMs = spanned("bench.build_model",
                             [&] { m.emplace(models::buildModel(w_.model, rng)); });
    // The deployed checkpoint: trained in-harness, then snapshotted as
    // the pristine state every segment restores.
    nn::ModelState pristine;
    double trainMs = spanned("bench.train", [&] {
        train::TrainConfig cfg;
        cfg.steps = kTrainSteps;
        cfg.batchSize = 32;
        cfg.useAugmix = true;
        cfg.seed = kTrainSeed + 1;
        train::trainModel(*m, *dataset_, cfg);
        pristine = nn::ModelState::capture(m->net());
    });
    for (Algorithm a : adapt::allAlgorithms()) {
        pristine.restore(m->net());
        std::unique_ptr<adapt::AdaptationMethod> method;
        double makeMs = spanned("bench.make_method",
                                [&] { method = adapt::makeMethod(a, *m); });
        double firstMs = spanned(kBatchSpan, [&] {
            method->processBatch(stream_[0][0].images);
        });
        if (keep) {
            runs_[a].makeMethodMs = makeMs;
            runs_[a].firstBatchMs = firstMs;
        }
    }
    pristine.restore(m->net());
    if (keep) {
        metric("models.build_s", buildMs * 1e-3, "s", 1);
        metric("train.setup_s", trainMs * 1e-3, "s", 1);
    }
    return std::move(*m);
}

void
Bench::runSegment(Algorithm a, size_t seg, AlgRun &r, bool firstRound)
{
    size_t predAt = segmentStart_[seg];
    size_t pos = predAt / (size_t)w_.batch;
    pristine_.restore(model_->net());
    auto method = adapt::makeMethod(a, *model_);
    for (const data::Batch &b : stream_[seg]) {
        Clock::time_point t0 = Clock::now();
        Tensor logits = method->processBatch(b.images);
        const double ms = msSince(t0);
        ++r.timedBatches;
        if (firstRound)
            r.bestMs.push_back(ms);
        else
            r.bestMs[pos] = std::min(r.bestMs[pos], ms);
        ++pos;

        bool ok = true;
        const float *p = logits.data();
        for (int64_t i = 0; i < logits.numel(); ++i)
            ok = ok && std::isfinite(p[i]);
        std::vector<int> pred = argmaxRows(logits);
        ok = ok && (int64_t)pred.size() == b.size();
        if (firstRound)
            r.firstRoundPreds.resize(predAt + (size_t)b.size());
        for (size_t i = 0; ok && i < pred.size(); ++i) {
            if (firstRound) {
                r.firstRoundPreds[predAt + i] = pred[i];
                r.correct += pred[i] == b.labels[i];
            } else if (r.firstRoundPreds[predAt + i] != pred[i]) {
                ok = false;
            }
        }
        if (firstRound)
            r.samples += b.size();
        predAt += (size_t)b.size();
        r.failedBatches += !ok;
    }
}

/**
 * The timed window. The algorithms take turns segment by segment, so
 * background noise falls on all three alike. The first round scores
 * the error. Rounds start until --seconds have elapsed, and each one
 * covers the whole stream, so every batch is repeated equally often.
 */
void
Bench::timedRounds()
{
    Clock::time_point t0 = Clock::now();
    for (; rounds_ == 0 || msSince(t0) * 1e-3 < seconds_; ++rounds_) {
        for (size_t seg = 0; seg < stream_.size(); ++seg)
            for (Algorithm a : adapt::allAlgorithms())
                runSegment(a, seg, runs_[a], rounds_ == 0);
    }
}

/**
 * Determinism across thread counts: replay the first batches of the
 * stream at one thread and require the predictions of the timed run.
 */
void
Bench::replayAtOneThread()
{
    parallel::setThreadCount(1);
    int64_t mismatches = 0;
    for (Algorithm a : adapt::allAlgorithms()) {
        pristine_.restore(model_->net());
        auto method = adapt::makeMethod(a, *model_);
        size_t at = 0;
        for (int i = 0; i < w_.checkBatches; ++i) {
            std::vector<int> pred =
                argmaxRows(method->processBatch(stream_[0][(size_t)i].images));
            for (int p : pred)
                mismatches += runs_[a].firstRoundPreds[at++] != p;
        }
    }
    parallel::setThreadCount(threads_);
    addCheck("thread_invariance", mismatches == 0,
             std::to_string(mismatches) + " predictions differ at 1 vs " +
                 std::to_string(threads_) + " threads over " +
                 std::to_string(w_.checkBatches) + " batches/alg");
}

void
Bench::tracedAlg(Algorithm a, const obs::TraceSession &session,
                 TraceAgg &agg)
{
    obs::Counter &forCalls =
        obs::Registry::global().counter("parallel.for.calls");
    for (const auto &batches : stream_) {
        pristine_.restore(model_->net());
        auto method = adapt::makeMethod(a, *model_);
        for (int i = 0; i < w_.tracedBatches; ++i) {
            const data::Batch &b = batches[(size_t)i];
            obs::clearTraceEvents();
            obs::MemStats m0 = obs::memStats();
            obs::resetMemHighWater();
            obs::EnergySample e0, e1;
            obs::energySampleNow(&e0);
            int64_t calls0 = forCalls.value();
            {
                obs::Span span(kBatchSpan, "bench");
                method->processBatch(b.images);
            }
            agg.forCalls += forCalls.value() - calls0;
            obs::energySampleNow(&e1);
            obs::MemStats m1 = obs::memStats();
            agg.allocs += m1.allocCount - m0.allocCount;
            agg.allocBytes += m1.allocBytes - m0.allocBytes;
            agg.peakBytes = std::max(agg.peakBytes,
                                     m1.highWaterBytes - m0.liveBytes);
            agg.joules += e1.joules - e0.joules;
            foldBatch(obs::collectTraceEvents(), agg);
            // Read before the next batch's clear resets the count.
            droppedEvents_ += session.droppedEvents();
        }
    }
}

void
Bench::tracedRound()
{
    obs::setMemTrackingEnabled(true);
    obs::setEnergyBackend(obs::EnergyBackend::Synthetic);
    {
        obs::TraceSession session;
        // Warm the per-thread trace buffers before the counted batches.
        pristine_.restore(model_->net());
        adapt::makeMethod(Algorithm::BnOpt, *model_)
            ->processBatch(stream_[0][0].images);
        for (Algorithm a : adapt::allAlgorithms())
            tracedAlg(a, session, traced_[a]);
    }
    obs::setEnergyBackend(obs::EnergyBackend::Off);
    obs::setMemTrackingEnabled(false);
    pristine_.restore(model_->net());

    const double mb = 1.0 / (1024.0 * 1024.0);
    double tracedSum = 0, untracedSum = 0;
    int64_t unbalanced = 0;
    for (Algorithm a : adapt::allAlgorithms()) {
        const TraceAgg &t = traced_[a];
        const std::string k = algKey(a);
        const int64_t n = (int64_t)t.batchMs.size();
        const double per = n ? 1.0 / (double)n : 0.0;
        tracedSum += quantile(t.batchMs, 0.5);
        untracedSum += p50_[a];
        unbalanced += t.unbalancedBatches;
        metric("adapt." + k + ".batch_ms", quantile(t.batchMs, 0.5), "ms", n);
        metric("adapt." + k + ".self_ms", t.selfMs * per, "ms", n);
        metric("nn." + k + ".conv_fw_ms", t.convFw * per, "ms", n);
        metric("nn." + k + ".other_fw_ms",
               (t.fwMs - t.convFw - t.bnFw) * per, "ms", n);
        metric("tensor." + k + ".gemm_ms", t.gemmMs * per, "thread_ms", n);
        metric("tensor." + k + ".gemm_calls", (double)t.gemmCalls * per,
               "count", n);
        metric("tensor." + k + ".im2col_ms", t.im2colMs * per,
               "thread_ms", n);
        metric("parallel." + k + ".for_calls", (double)t.forCalls * per,
               "count", n);
        metric("parallel." + k + ".for_ms", t.forMs * per, "ms", n);
        metric("parallel." + k + ".idle_share",
               t.forMs > 0 ? 1.0 - t.chunkMs / (threads_ * t.forMs) : 0.0,
               "ratio", n);
        metric("obs." + k + ".spans_per_batch", (double)t.spans * per,
               "count", n);
        metric("mem." + k + ".allocs_per_batch", (double)t.allocs * per,
               "count", n);
        metric("mem." + k + ".alloc_mb_per_batch",
               (double)t.allocBytes * per * mb, "MB", n);
        metric("mem." + k + ".batch_peak_mb", (double)t.peakBytes * mb,
               "MB", n);
        metric("energy." + k + ".modeled_j_per_batch", t.joules * per,
               "modeled_J", n);
        metric("adapt." + k + ".make_method_ms", runs_[a].makeMethodMs,
               "ms", 1);
        metric("adapt." + k + ".first_batch_ms", runs_[a].firstBatchMs,
               "ms", 1);
        if (a != Algorithm::NoAdapt)
            metric("nn." + k + ".bn_fw_ms", t.bnFw * per, "ms", n);
        if (a == Algorithm::BnOpt) {
            metric("nn.bnopt.conv_bw_ms", t.convBw * per, "ms", n);
            metric("nn.bnopt.bn_bw_ms", t.bnBw * per, "ms", n);
            metric("nn.bnopt.other_bw_ms",
                   (t.bwMs - t.convBw - t.bnBw) * per, "ms", n);
            metric("train.entropy_ms", t.entropyMs * per, "ms", n);
            metric("train.adam_step_ms", t.adamMs * per, "ms", n);
        }
        std::printf("traced %-8s self-time split per batch (ms):", k.c_str());
        for (int l = 0; l < 6; ++l)
            std::printf(" %s %.3f", kLayerNames[l], t.layerSelf[l] * per);
        std::printf("  sum %.3f  batch %.3f\n",
                    std::accumulate(t.layerSelf, t.layerSelf + 6, 0.0) * per,
                    sum(t.batchMs) * per);
    }
    addCheck("trace_self_times_add_up", unbalanced == 0,
             std::to_string(unbalanced) +
                 " traced batches whose caller-thread self times do not "
                 "sum to the batch span");
    addCheck("trace_no_dropped_events", droppedEvents_ == 0,
             std::to_string(droppedEvents_) + " events dropped");

    const TraceAgg &nrm = traced_[Algorithm::BnNorm];
    const TraceAgg &opt = traced_[Algorithm::BnOpt];
    const TraceAgg &noa = traced_[Algorithm::NoAdapt];
    const double nrmBatch = sum(nrm.batchMs);
    metric("obs.trace_overhead_pct",
           untracedSum > 0 ? 100.0 * (tracedSum / untracedSum - 1.0) : 0.0,
           "%", (int64_t)nrm.batchMs.size());
    metric("obs.dropped_events", (double)droppedEvents_, "count", 1);
    metric("adapt.bnnorm_over_noadapt",
           p50_[Algorithm::BnNorm] / p50_[Algorithm::NoAdapt], "ratio",
           metrics_["bnnorm_batch_ms_p50"].samples);
    metric("adapt.bnopt_over_bnnorm",
           p50_[Algorithm::BnOpt] / p50_[Algorithm::BnNorm], "ratio",
           metrics_["bnopt_batch_ms_p50"].samples);
    metric("nn.conv_bw_over_fw", opt.convBw / opt.convFw, "ratio",
           (int64_t)opt.batchMs.size());
    metric("nn.bnnorm.bn_share", nrm.bnFw / nrmBatch, "ratio",
           (int64_t)nrm.batchMs.size());
    metric("tensor.bnnorm.gemm_share", nrm.gemmMs / (threads_ * nrmBatch),
           "ratio", (int64_t)nrm.batchMs.size());
    metric("adapt.bnnorm.per_call_share",
           (nrm.layerSelf[0] + nrm.layerSelf[1] + nrm.layerSelf[4]) /
               nrmBatch,
           "ratio", (int64_t)nrm.batchMs.size());

    // Computed work from layer shapes: conv/linear FLOPs for the GEMM
    // rate, BN input-read plus output-write bytes for the BN rate.
    double flops = 0, bnBytes = 0;
    for (const nn::LayerDesc &d : model_->layers()) {
        if (d.op == nn::OpClass::Conv || d.op == nn::OpClass::Linear)
            flops += 2.0 * (double)d.macs;
        if (d.op == nn::OpClass::BatchNorm)
            bnBytes += 2.0 * 4.0 * (double)d.outElems;
    }
    flops *= (double)w_.batch;
    bnBytes *= (double)w_.batch;
    const double noaN = (double)noa.batchMs.size();
    const double nrmN = (double)nrm.batchMs.size();
    metric("tensor.gemm_gflops",
           noa.gemmMs > 0 ? flops * noaN / (noa.gemmMs * 1e-3) * 1e-9 : 0,
           "GFLOP/s", (int64_t)noaN);
    metric("nn.bn_fw_gbps",
           nrm.bnFw > 0 ? bnBytes * nrmN / (nrm.bnFw * 1e-3) * 1e-9 : 0,
           "GB/s", (int64_t)nrmN);
    costModel();
}

/** The cost model's predictions beside the traced measurements. */
void
Bench::costModel()
{
    device::DeviceSpec dev = device::raspberryPi4();
    // Measurement-configured memory: tensor working set only.
    dev.mem.capacityBytes = 64ull << 30;
    dev.mem.runtimeBaseBytes = 0;
    dev.mem.gpuLibBytes = 0;
    dev.mem.graphOverheadFactor = 1.0;
    dev.mem.forwardSlackFactor = 1.0;
    device::LayerClassBreakdown br =
        device::breakdownByClass(dev, *model_, Algorithm::BnOpt, w_.batch);
    device::RunEstimate noa =
        device::estimateRun(dev, *model_, Algorithm::NoAdapt, w_.batch);
    device::RunEstimate nrm =
        device::estimateRun(dev, *model_, Algorithm::BnNorm, w_.batch);
    device::RunEstimate opt =
        device::estimateRun(dev, *model_, Algorithm::BnOpt, w_.batch);
    metric("cost.conv_bw_over_fw", br.convBw / br.convFw, "ratio", 1);
    metric("cost.bnnorm_over_noadapt", nrm.seconds / noa.seconds, "ratio",
           1);
    metric("cost.bnopt_activation_mb",
           (double)(opt.memory.activationBytes + opt.memory.graphBytes) /
               (1024.0 * 1024.0),
           "MB", 1);
}

void
Bench::addCheck(const std::string &name, bool ok, const std::string &detail)
{
    checks_.push_back({name, ok, detail});
}

void
Bench::run()
{
    threads_ = std::min(kBoardThreads, parallel::hardwareThreads());
    parallel::setThreadCount(threads_);
    // A traced run also reads stream generation and set-up back from
    // the harness's spans; the timed window always runs untraced.
    obs::setTracingEnabled(trace_);
    obs::setMemTrackingEnabled(false);
    obs::setEnergyBackend(obs::EnergyBackend::Off);

    Rng probe(kTrainSeed);
    const int64_t imageSize =
        models::buildModel(w_.model, probe).info().inputShape[1];
    data::SynthCifar dataset(imageSize);
    dataset_ = &dataset;
    generateStream();

    std::vector<double> setupS;
    for (int i = 1; i < kSetupRepeats; ++i) {
        Clock::time_point t0 = Clock::now();
        setUp(false);
        setupS.push_back(msSince(t0) * 1e-3);
    }
    Clock::time_point t0 = Clock::now();
    models::Model model = setUp(true);
    setupS.push_back(msSince(t0) * 1e-3);
    metric("setup_s", quantile(setupS, 0.5), "s", (int64_t)setupS.size());
    obs::setTracingEnabled(false);
    model_ = &model;
    pristine_ = nn::ModelState::capture(model.net());
    const bool fused = [&] {
        auto m = adapt::makeMethod(Algorithm::NoAdapt, model);
        return model.evalPathFused();
    }();

    timedRounds();

    int64_t attempted = 0, failedBatches = 0;
    for (Algorithm a : adapt::allAlgorithms()) {
        const AlgRun &r = runs_[a];
        const std::string k = algKey(a);
        attempted += r.timedBatches;
        failedBatches += r.failedBatches;
        // Every round repeats the same deterministic work on the same
        // batches, and other tenants of a shared host only ever add
        // time, in bursts lasting seconds. So each stream batch counts
        // with its best time over the rounds, and the statistics are
        // taken over the stream's batches.
        const int64_t n = (int64_t)r.bestMs.size();
        p50_[a] = quantile(r.bestMs, 0.5);
        metric(k + "_batch_ms_p50", p50_[a], "ms", n);
        metric(k + "_batch_ms_p90", quantile(r.bestMs, 0.9), "ms", n);
        metric(k + "_images_per_s",
               (double)n * (double)w_.batch / (sum(r.bestMs) * 1e-3), "1/s",
               n);
        metric(k + "_error_pct",
               100.0 * (1.0 - (double)r.correct / (double)r.samples), "%",
               r.samples);
    }
    metric("peak_rss_mb", peakRssMb(), "MB", 1);
    addCheck("finite_and_repeatable_batches", failedBatches == 0,
             std::to_string(failedBatches) + " of " +
                 std::to_string(attempted) +
                 " batches had non-finite logits or predictions that "
                 "differ from the first round");
    if (w_.assertPaperOrdering) {
        double noa = metrics_["noadapt_error_pct"].value;
        double nrm = metrics_["bnnorm_error_pct"].value;
        double opt = metrics_["bnopt_error_pct"].value;
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "No-Adapt %.2f%% vs BN-Norm %.2f%% and BN-Opt %.2f%%",
                      noa, nrm, opt);
        addCheck("paper_error_ordering", noa > nrm && noa > opt, buf);
    }
    replayAtOneThread();
    if (trace_)
        tracedRound();

    obs::JsonWriter j;
    j.beginObject();
    j.key("workload");
    j.value(w_.name);
    j.key("provenance");
    j.beginObject();
    j.key("seed");
    j.value((int64_t)seed_);
    j.key("threads");
    j.value((int64_t)threads_);
    j.key("nproc");
    j.value((int64_t)parallel::hardwareThreads());
    j.key("simd");
    j.value(simd::activeDispatch().name);
    j.key("fused_eval");
    j.value(fused);
    j.key("energy_backend");
    j.value(trace_ ? "synthetic" : "off");
    j.key("rounds");
    j.value((int64_t)rounds_);
    j.endObject();
    j.key("attempted");
    j.value(attempted);
    j.key("failed_batches");
    j.value(failedBatches);
    j.key("checks");
    j.beginArray();
    for (const Check &c : checks_) {
        j.beginObject();
        j.key("name");
        j.value(c.name);
        j.key("ok");
        j.value(c.ok);
        j.key("detail");
        j.value(c.detail);
        j.endObject();
    }
    j.endArray();
    j.key("metrics");
    j.beginObject();
    for (const auto &[name, m] : metrics_) {
        j.key(name);
        j.beginObject();
        j.key("value");
        j.value(m.value);
        j.key("unit");
        j.value(m.unit);
        j.key("samples");
        j.value(m.samples);
        j.endObject();
    }
    j.endObject();
    j.endObject();
    std::printf("%s\n", j.str().c_str());
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "adapt_stream: %s\nusage: adapt_stream --workload NAME "
                 "--seed N --seconds S --trace 0|1\n",
                 msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    long long seed = -1;
    double seconds = -1;
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            workload = v;
        } else if (flag == "--seed") {
            seed = std::strtoll(v, &end, 10);
        } else if (flag == "--seconds") {
            seconds = std::strtod(v, &end);
        } else if (flag == "--trace") {
            trace = (int)std::strtol(v, &end, 10);
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end && *end)
            usage(("bad value for " + flag).c_str());
    }
    if (seed < 0 || seconds <= 0 || (trace != 0 && trace != 1))
        usage("--seed, --seconds and --trace are required");
    for (const Workload &w : workloads()) {
        if (workload == w.name) {
            Bench(w, (uint64_t)seed, seconds, trace == 1).run();
            return 0;
        }
    }
    usage(("unknown workload '" + workload + "'").c_str());
}

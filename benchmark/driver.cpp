// asmcap_benchdrv — the in-process half of the repo benchmark
// (benchmark/run.py). It drives the library only through public calls:
// SeqStreamReader, ingest_reference, the ShardedAccelerator mutation and
// configuration entry points, SearchService::submit, SearchTicket::wait /
// read_timings, and KernelOps over a PackedRowMatrix.
//
//   asmcap_benchdrv gen WORKLOAD DIR SEED [--tiny]
//   asmcap_benchdrv run WORKLOAD DIR [--tiny] [--trace] [--setup-only]
//   asmcap_benchdrv probe WORKLOAD DIR [--tiny]
//   asmcap_benchdrv report OUT.json  < key/value lines
//   asmcap_benchdrv spawn PROGRAM [ARGS...]
//
// `gen` writes the inputs of an in-process workload (genome/readsim).
// `run` executes one repetition: it writes one "ready" line to stderr when
// the database is set up (run.py timestamps it as setup_s), one row per
// read to DIR/rows[.traced].tsv, and a JSON object of counters and
// timings as the last stdout line. With --trace it also records a span
// around every public call it makes and writes them to DIR/trace.json at
// exit. `probe` times single layers alone (reader parse, half-reference
// ingest, packed kernels, the functional backend on paper_circuit) for the
// traced report. `report` renders run.py's figures as an asmcap-bench-v1
// JSON through write_bench_json. `spawn` runs PROGRAM as its child and,
// once it has exited, writes the child's ru_maxrss to stderr: a process
// starts with its parent's peak RSS as the floor of its own, so run.py
// (a Python process of about 20 MB) cannot launch the measured programs
// itself.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

#include "align/edit_distance.h"
#include "align/kernels.h"
#include "asmcap/ingest.h"
#include "asmcap/service.h"
#include "asmcap/sharded.h"
#include "genome/fasta.h"
#include "genome/readsim.h"
#include "genome/reference.h"
#include "genome/stream_reader.h"
#include "util/bench_json.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace asmcap;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kWidth = 256;
constexpr std::size_t kWorkers = 2;

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmRSS:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<std::size_t>(rank, 1)) - 1];
}

// ------------------------------------------------------------- tracing --

/// In-memory span recorder. Disabled, a span is one branch and no clock
/// read. Spans nest by call order on the control thread; the parent is the
/// innermost open span.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, std::size_t index) : tracer_(tracer), index_(index) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void count(double n) {
      if (tracer_ != nullptr) tracer_->spans_[index_].count = n;
    }

   private:
    Tracer* tracer_;
    std::size_t index_;
  };

  Tracer(bool enabled, std::string run_id)
      : enabled_(enabled), run_id_(std::move(run_id)) {}

  Scope span(const char* name) {
    if (!enabled_) return Scope(nullptr, 0);
    Span span;
    span.id = spans_.size() + 1;
    span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
    span.name = name;
    span.start = now_s();
    spans_.push_back(span);
    open_.push_back(spans_.size() - 1);
    return Scope(this, spans_.size() - 1);
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"run\": \"" << run_id_ << "\", \"spans\": [";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"id\": %zu, \"parent\": %zu, \"name\": \"%s\", "
                    "\"start\": %.9f, \"end\": %.9f, \"count\": %.17g}",
                    i == 0 ? "" : ",", s.id, s.parent, s.name, s.start, s.end,
                    s.count);
      out << buf;
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("cannot write " + path);
  }

 private:
  struct Span {
    std::size_t id = 0;
    std::size_t parent = 0;
    const char* name = "";
    double start = 0.0;
    double end = 0.0;
    double count = 0.0;
  };

  void close(std::size_t index) {
    spans_[index].end = now_s();
    open_.pop_back();
  }

  bool enabled_;
  std::string run_id_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

// ------------------------------------------------------------ workloads --

/// Sizes of the in-process workloads; --tiny shrinks them for the smoke
/// test without changing their shape.
struct Sizes {
  std::size_t records, tiles;       // reference: records x tiles
  std::size_t fresh_records, fresh_tiles;
  std::size_t cycles, chunk, churn;  // live_churn loop
  std::size_t reads_a, reads_b;      // paper_circuit
  std::size_t array_rows, arrays;
};

Sizes sizes_for(const std::string& workload, bool tiny) {
  if (workload == "live_churn")
    return tiny ? Sizes{2, 100, 2, 64, 8, 16, 16, 0, 0, 16, 4}
                : Sizes{8, 1000, 4, 1024, 64, 128, 64, 0, 0, 256, 9};
  if (workload == "paper_circuit")
    return tiny ? Sizes{2, 32, 0, 0, 0, 10, 0, 20, 20, 16, 2}
                : Sizes{2, 1000, 0, 0, 0, 25, 0, 125, 125, 256, 2};
  throw std::invalid_argument("unknown in-process workload " + workload);
}

bool is_cli(const std::string& workload) {
  return workload == "cli_ref32k" || workload == "cli_reads16k";
}

/// The configuration every run of a workload shares; the CLI replays use
/// asmcap_search's defaults (512 arrays x 256 rows, 4 shards, ideal
/// sensing, functional backend, T = 12, full mode).
struct DbSetup {
  AsmcapConfig config;
  std::size_t shards = 4;
  BackendKind backend = BackendKind::Functional;
  std::size_t threshold = 12;
};

DbSetup db_setup(const std::string& workload, bool tiny) {
  DbSetup setup;
  setup.config.array_cols = kWidth;
  setup.config.ideal_sensing = true;
  if (is_cli(workload)) return setup;
  const Sizes sizes = sizes_for(workload, tiny);
  setup.config.array_rows = sizes.array_rows;
  setup.config.array_count = sizes.arrays;
  if (workload == "live_churn") {
    setup.config.pruning.enabled = true;
  } else {
    setup.config.ideal_sensing = false;
    setup.backend = BackendKind::Circuit;
    setup.threshold = 8;
  }
  return setup;
}

// ------------------------------------------------------------------ gen --

void write_reference(const std::string& path, const std::string& prefix,
                     std::size_t records, std::size_t tiles, Rng& rng,
                     std::vector<Sequence>& out) {
  std::vector<FastaRecord> fasta(records);
  for (std::size_t r = 0; r < records; ++r) {
    Rng stream = rng.fork(r + 1);
    fasta[r].id = prefix + std::to_string(r);
    fasta[r].seq = generate_reference(kWidth * tiles, {}, stream);
    out.push_back(fasta[r].seq);
  }
  write_fasta_file(path, fasta, 60);
}

struct Origin {
  const Sequence* record;
  std::string name;
  std::size_t offset;
};

void write_reads(const std::string& path, const std::vector<Origin>& origins,
                 const ErrorRates& rates, std::size_t first_index, Rng& rng,
                 std::vector<Sequence>* keep) {
  std::FILE* fq = std::fopen(path.c_str(), "wb");
  if (fq == nullptr) throw std::runtime_error("cannot write " + path);
  ReadSimConfig sim;
  sim.read_length = kWidth;
  sim.rates = rates;
  for (std::size_t i = 0; i < origins.size(); ++i) {
    const ReadSimulator simulator(*origins[i].record, sim);
    Rng stream = rng.fork(first_index + i + 1);
    const Sequence read = simulator.simulate_at(origins[i].offset, stream).read;
    const std::string text = read.to_string();
    std::fprintf(fq, "@read%zu %s:%zu\n%s\n+\n%s\n", first_index + i,
                 origins[i].name.c_str(), origins[i].offset, text.c_str(),
                 std::string(text.size(), 'I').c_str());
    if (keep != nullptr) keep->push_back(read);
  }
  if (std::fclose(fq) != 0) throw std::runtime_error("cannot write " + path);
}

/// live_churn: ref.fa is ingested, fresh.fa feeds the appends in file
/// order. Chunk c is searched while tiles [c*churn, c*churn + initial) of
/// the concatenated tile order are live, so each read's origin is drawn
/// from that window (never a record's final tile: read simulation extends
/// into the following bases when deletions shorten the window).
void gen_live_churn(const std::string& dir, const Sizes& s, Rng& rng) {
  std::vector<Sequence> ref;
  std::vector<Sequence> fresh;
  Rng ref_rng = rng.fork(1);
  Rng fresh_rng = rng.fork(2);
  write_reference(dir + "/ref.fa", "ref", s.records, s.tiles, ref_rng, ref);
  write_reference(dir + "/fresh.fa", "fresh", s.fresh_records, s.fresh_tiles,
                  fresh_rng, fresh);
  const std::size_t initial = s.records * s.tiles;
  auto tile = [&](std::size_t t, bool& last) -> Origin {
    if (t < initial) {
      last = t % s.tiles == s.tiles - 1;
      return {&ref[t / s.tiles], "ref" + std::to_string(t / s.tiles),
              (t % s.tiles) * kWidth};
    }
    t -= initial;
    last = t % s.fresh_tiles == s.fresh_tiles - 1;
    return {&fresh[t / s.fresh_tiles], "fresh" + std::to_string(t / s.fresh_tiles),
            (t % s.fresh_tiles) * kWidth};
  };
  std::vector<Origin> origins;
  Rng pick = rng.fork(3);
  for (std::size_t c = 0; c < s.cycles; ++c) {
    for (std::size_t i = 0; i < s.chunk; ++i) {
      bool last = true;
      Origin origin{nullptr, "", 0};
      while (last) origin = tile(c * s.churn + pick.below(initial), last);
      origins.push_back(origin);
    }
  }
  Rng read_rng = rng.fork(4);
  write_reads(dir + "/reads.fq", origins, ErrorRates::condition_a(), 0,
              read_rng, nullptr);
}

/// paper_circuit: condition-A reads then condition-B reads of one
/// reference, plus the exact ground truth — every (read, segment) pair
/// with edit_distance_within(read, segment, T) — computed here once so no
/// run pays for it.
void gen_paper_circuit(const std::string& dir, const Sizes& s, Rng& rng) {
  std::vector<Sequence> ref;
  Rng ref_rng = rng.fork(1);
  write_reference(dir + "/ref.fa", "ref", s.records, s.tiles, ref_rng, ref);
  Rng pick = rng.fork(3);
  auto origins = [&](std::size_t n) {
    std::vector<Origin> out;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t r = i % s.records;
      out.push_back({&ref[r], "ref" + std::to_string(r),
                     pick.below(s.tiles - 1) * kWidth});
    }
    return out;
  };
  std::vector<Sequence> reads;
  Rng read_rng = rng.fork(4);
  write_reads(dir + "/reads_a.fq", origins(s.reads_a),
              ErrorRates::condition_a(), 0, read_rng, &reads);
  write_reads(dir + "/reads_b.fq", origins(s.reads_b),
              ErrorRates::condition_b(), s.reads_a, read_rng, &reads);

  std::vector<Sequence> segments;
  for (const Sequence& record : ref)
    for (Sequence& tile : segment_reference(record, kWidth))
      segments.push_back(std::move(tile));
  const std::size_t threshold = db_setup("paper_circuit", false).threshold;
  std::ofstream truth(dir + "/truth.txt");
  for (const Sequence& read : reads) {
    std::string line;
    for (std::size_t g = 0; g < segments.size(); ++g) {
      if (!edit_distance_within(read, segments[g], threshold)) continue;
      if (!line.empty()) line += ',';
      line += std::to_string(g);
    }
    truth << (line.empty() ? "-" : line) << '\n';
  }
  if (!truth) throw std::runtime_error("cannot write truth.txt");
}

// ------------------------------------------------------------------ run --

struct Counters {
  std::map<std::string, double> values;
  void set(const std::string& key, double value) { values[key] = value; }
  void print() const {
    std::printf("{");
    bool first = true;
    for (const auto& [key, value] : values) {
      std::printf("%s\"%s\": %.17g", first ? "" : ", ", key.c_str(), value);
      first = false;
    }
    std::printf("}\n");
  }
};

/// Per-read service timings pooled over every ticket of a run.
struct ServiceSamples {
  std::vector<double> queue_wait, exec, merge, completion;
  double busy = 0.0;
  std::size_t peak_in_flight = 0;

  void add(const SearchTicket& ticket) {
    for (const ReadTiming& t : ticket.read_timings()) {
      if (t.outcome != ReadOutcome::Done) continue;
      queue_wait.push_back((t.started - t.submitted) * 1e3);
      exec.push_back((t.executed - t.started) * 1e3);
      merge.push_back((t.merged - t.executed) * 1e3);
      completion.push_back((t.merged - t.submitted) * 1e3);
      busy += t.executed - t.started;
    }
    peak_in_flight = std::max(peak_in_flight, ticket.peak_in_flight());
  }

  double exec_ms_per_read() const {
    return exec.empty() ? 0.0 : busy * 1e3 / static_cast<double>(exec.size());
  }

  void report(Counters& out, double search_wall) {
    out.set("service.queue_wait_ms_p50", percentile(queue_wait, 50));
    out.set("service.queue_wait_ms_p99", percentile(queue_wait, 99));
    out.set("service.exec_ms_p50", percentile(exec, 50));
    out.set("service.exec_ms_p99", percentile(exec, 99));
    out.set("service.merge_ms_p50", percentile(merge, 50));
    out.set("service.peak_in_flight", static_cast<double>(peak_in_flight));
    out.set("service.busy_s", busy);
    out.set("service.search_wall_s", search_wall);
    out.set("service.worker_busy_share",
            search_wall > 0 ? busy / (kWorkers * search_wall) : 0.0);
    out.set("backend.exec_ms_per_read", exec_ms_per_read());
    out.set("read_latency_ms_p50", percentile(completion, 50));
    out.set("read_latency_ms_p99", percentile(completion, 99));
  }
};

/// One output row per read, kept until the run ends.
struct ReadRow {
  std::string id;
  const char* status = "ok";
  std::vector<std::size_t> matched;
  double latency = 0.0;
  double energy = 0.0;
};

struct Db {
  explicit Db(const DbSetup& setup) : accel(setup.config, setup.shards) {}
  ShardedAccelerator accel;
  ReferenceIndex index;
  IngestStats ingest;
};

/// DB construction + ingest + backend set-up, spanned and measured.
void build_db(Db& db, const DbSetup& setup, const std::string& ref_path,
              Tracer& tracer, Counters& out) {
  {
    auto span = tracer.span("db.set_backend");
    db.accel.set_backend(setup.backend);
  }
  const double rss_before = rss_mb();
  const double start = now_s();
  {
    auto outer = tracer.span("ingest.ingest_reference");
    std::unique_ptr<SeqStreamReader> reader;
    {
      auto span = tracer.span("genome.open");
      reader = std::make_unique<SeqStreamReader>(ref_path);
    }
    db.ingest = ingest_reference(db.accel, *reader, {}, &db.index);
    outer.count(static_cast<double>(db.ingest.segments));
  }
  const double ingest_s = now_s() - start;
  const double rss_delta = rss_mb() - rss_before;
  const auto segments = static_cast<double>(db.ingest.segments);
  out.set("ingest.segments", segments);
  out.set("ingest.ingest_s", ingest_s);
  out.set("ingest.epochs_published", static_cast<double>(db.accel.epoch()));
  out.set("db.active_banks", static_cast<double>(db.accel.active_shards()));
  out.set("db.rss_mb_build", rss_delta);
  out.set("db.bytes_per_segment",
          segments > 0 ? rss_delta * 1024.0 * 1024.0 / segments : 0.0);
}

void record_totals(const ShardedAccelerator& accel, Counters& out) {
  const ExecutionTotals& t = accel.totals();
  out.set("plan.queries", static_cast<double>(t.queries));
  out.set("plan.ed_star_passes",
          static_cast<double>(t.queries + t.rotation_searches));
  out.set("plan.hd_passes", static_cast<double>(t.hd_searches));
  out.set("sketch.banks_probed", static_cast<double>(t.banks_probed));
  out.set("sketch.banks_pruned", static_cast<double>(t.banks_pruned));
  out.set("model.latency_s", t.latency_seconds);
  out.set("model.energy_j", t.energy_joules);
}

std::vector<Sequence> sequences_of(std::vector<SeqRecord>& records) {
  std::vector<Sequence> seqs;
  seqs.reserve(records.size());
  for (SeqRecord& record : records) seqs.push_back(std::move(record.seq));
  return seqs;
}

/// Replays asmcap_search on one workload: same configuration, same
/// ServiceOptions (in_order, keep_results = false, chunk 1024, next chunk
/// read while the current one executes), same TSV row format.
void run_cli_replay(const std::string& workload, const std::string& dir,
                    bool setup_only, Tracer& tracer, std::ostream& rows,
                    Counters& out) {
  const DbSetup setup = db_setup(workload, false);
  auto run_span = tracer.span("bench.run");
  Db db(setup);
  build_db(db, setup, dir + "/ref.fa", tracer, out);
  std::cerr << "asmcap_benchdrv: ready" << std::endl;
  if (setup_only) return;

  constexpr std::size_t kChunk = 1024;
  constexpr std::size_t kMaxHits = 8;
  std::unique_ptr<SearchService> service;
  std::unique_ptr<SeqStreamReader> reads;
  {
    auto span = tracer.span("genome.open");
    reads = std::make_unique<SeqStreamReader>(dir + "/reads.fq");
  }
  {
    auto span = tracer.span("service.construct");
    service = std::make_unique<SearchService>(db.accel);
  }
  rows << "read\tstatus\tmatches\thits\tlatency_s\tenergy_j\n";
  ServiceSamples samples;
  std::size_t n_reads = 0, n_ok = 0;
  const double search_start = now_s();
  auto read_chunk = [&]() {
    auto span = tracer.span("genome.read_chunk");
    std::vector<SeqRecord> chunk = reads->read_chunk(kChunk);
    span.count(static_cast<double>(chunk.size()));
    return chunk;
  };
  std::vector<SeqRecord> chunk = read_chunk();
  while (!chunk.empty()) {
    std::vector<std::string> ids;
    for (const SeqRecord& record : chunk) {
      if (record.seq.size() != kWidth)
        throw std::runtime_error("read width differs from the workload's");
      ids.push_back(record.id);
    }
    std::vector<std::string> lines(chunk.size());
    ServiceOptions options;
    options.workers = kWorkers;
    options.in_order = true;
    options.keep_results = false;
    options.on_complete = [&](std::size_t i, const QueryResult& result) {
      std::ostringstream line;
      std::string hits;
      const std::size_t shown = std::min(kMaxHits, result.matched_segments.size());
      for (std::size_t h = 0; h < shown; ++h) {
        if (h != 0) hits += ',';
        hits += db.index.label(result.matched_segments[h]);
      }
      if (shown < result.matched_segments.size()) hits += ",...";
      line << ids[i] << "\tok\t" << result.matched_segments.size() << '\t'
           << (hits.empty() ? "-" : hits) << '\t' << result.latency_seconds
           << '\t' << result.energy_joules;
      lines[i] = line.str();
    };
    std::shared_ptr<SearchTicket> ticket;
    {
      auto span = tracer.span("service.submit");
      span.count(static_cast<double>(chunk.size()));
      ticket = service->submit(sequences_of(chunk), setup.threshold,
                               StrategyMode::Full, options);
    }
    std::vector<SeqRecord> next = read_chunk();
    {
      auto span = tracer.span("service.wait");
      ticket->wait();
    }
    samples.add(*ticket);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      ++n_reads;
      if (ticket->outcome(i) == ReadOutcome::Done) {
        ++n_ok;
        rows << lines[i] << '\n';
      } else {
        rows << ids[i] << "\tfailed\t0\t-\t0\t0\n";
      }
    }
    chunk = std::move(next);
  }
  out.set("reads", static_cast<double>(n_reads));
  out.set("reads_ok", static_cast<double>(n_ok));
  samples.report(out, now_s() - search_start);
  record_totals(db.accel, out);
}

/// Tiles every record of a FASTA file (the fresh tiles of live_churn) and
/// remembers each tile's "record:offset" label.
void load_tiles(const std::string& path, std::vector<Sequence>& tiles,
                std::vector<std::string>& labels) {
  SeqStreamReader reader(path);
  SeqRecord record;
  while (reader.next(record)) {
    std::vector<Sequence> t = segment_reference(record.seq, kWidth);
    for (std::size_t i = 0; i < t.size(); ++i) {
      labels.push_back(record.id + ":" + std::to_string(i * kWidth));
      tiles.push_back(std::move(t[i]));
    }
  }
}

void write_inproc_rows(std::ostream& rows, const std::vector<ReadRow>& all,
                       const std::function<std::string(std::size_t)>& label) {
  rows << "read\tstatus\tmatches\tids\tlatency_s\tenergy_j\tlabels\n";
  for (const ReadRow& row : all) {
    std::string ids, labels;
    for (const std::size_t id : row.matched) {
      if (!ids.empty()) {
        ids += ',';
        labels += ',';
      }
      ids += std::to_string(id);
      labels += label(id);
    }
    rows << row.id << '\t' << row.status << '\t' << row.matched.size() << '\t'
         << (ids.empty() ? "-" : ids) << '\t' << row.latency << '\t'
         << row.energy << '\t' << (labels.empty() ? "-" : labels) << '\n';
  }
}

/// Submits one chunk, waits (closed loop), and appends its rows.
void search_chunk(SearchService& service, std::vector<SeqRecord> chunk,
                  std::size_t threshold, Tracer& tracer,
                  ServiceSamples& samples, std::vector<ReadRow>& rows) {
  const std::size_t first = rows.size();
  for (const SeqRecord& record : chunk) rows.push_back({record.id, "failed", {}, 0, 0});
  ServiceOptions options;
  options.workers = kWorkers;
  options.on_complete = [&rows, first](std::size_t i, const QueryResult& r) {
    ReadRow& row = rows[first + i];
    row.status = "ok";
    row.matched = r.matched_segments;
    row.latency = r.latency_seconds;
    row.energy = r.energy_joules;
  };
  std::shared_ptr<SearchTicket> ticket;
  {
    auto span = tracer.span("service.submit");
    span.count(static_cast<double>(chunk.size()));
    ticket = service.submit(sequences_of(chunk), threshold, StrategyMode::Full,
                            options);
  }
  {
    auto span = tracer.span("service.wait");
    ticket->wait();
  }
  samples.add(*ticket);
}

void run_live_churn(const std::string& dir, bool tiny, bool setup_only,
                    Tracer& tracer, std::ostream& rows_out, Counters& out) {
  const Sizes s = sizes_for("live_churn", tiny);
  const DbSetup setup = db_setup("live_churn", tiny);
  auto run_span = tracer.span("bench.run");
  Db db(setup);
  build_db(db, setup, dir + "/ref.fa", tracer, out);
  {
    auto span = tracer.span("db.set_error_profile");
    db.accel.set_error_profile(ErrorRates::condition_a());
  }
  std::vector<Sequence> fresh;
  std::vector<std::string> fresh_labels;
  {
    auto span = tracer.span("genome.load_fresh");
    load_tiles(dir + "/fresh.fa", fresh, fresh_labels);
  }
  std::cerr << "asmcap_benchdrv: ready" << std::endl;
  if (setup_only) return;

  std::deque<std::uint64_t> live;
  for (std::size_t i = 0; i < db.index.size(); ++i)
    live.push_back(db.index.first_id() + i);
  std::unordered_map<std::uint64_t, std::string> appended_labels;
  std::vector<double> append_ms, remove_ms;
  std::size_t mutations = 0, mutations_failed = 0;
  std::vector<ReadRow> rows;
  ServiceSamples samples;
  SearchService service(db.accel);
  SeqStreamReader reads(dir + "/reads.fq");
  const double search_start = now_s();
  for (std::size_t c = 0; c < s.cycles; ++c) {
    std::vector<SeqRecord> chunk;
    {
      auto span = tracer.span("genome.read_chunk");
      chunk = reads.read_chunk(s.chunk);
    }
    search_chunk(service, std::move(chunk), setup.threshold, tracer, samples,
                 rows);
    const std::vector<Sequence> batch(fresh.begin() + c * s.churn,
                                      fresh.begin() + (c + 1) * s.churn);
    ++mutations;
    try {
      auto span = tracer.span("db.append_segments");
      span.count(static_cast<double>(batch.size()));
      const double t0 = now_s();
      const std::vector<std::uint64_t> ids = db.accel.append_segments(batch);
      append_ms.push_back((now_s() - t0) * 1e3);
      for (std::size_t i = 0; i < ids.size(); ++i) {
        live.push_back(ids[i]);
        appended_labels[ids[i]] = fresh_labels[c * s.churn + i];
      }
    } catch (const std::exception& e) {
      std::cerr << "asmcap_benchdrv: append failed: " << e.what() << "\n";
      ++mutations_failed;
    }
    std::vector<std::uint64_t> oldest(live.begin(), live.begin() + s.churn);
    ++mutations;
    try {
      auto span = tracer.span("db.remove_segments");
      span.count(static_cast<double>(oldest.size()));
      const double t0 = now_s();
      db.accel.remove_segments(oldest);
      remove_ms.push_back((now_s() - t0) * 1e3);
      live.erase(live.begin(), live.begin() + s.churn);
    } catch (const std::exception& e) {
      std::cerr << "asmcap_benchdrv: remove failed: " << e.what() << "\n";
      ++mutations_failed;
    }
  }
  const double search_wall = now_s() - search_start;
  {
    auto span = tracer.span("db.compact");
    const double t0 = now_s();
    db.accel.compact();
    out.set("db.compact_ms", (now_s() - t0) * 1e3);
  }
  write_inproc_rows(rows_out, rows, [&](std::size_t id) {
    const auto it = appended_labels.find(id);
    return it != appended_labels.end() ? it->second : db.index.label(id);
  });
  std::size_t ok = 0;
  for (const ReadRow& row : rows) ok += row.status[0] == 'o';
  out.set("reads", static_cast<double>(rows.size()));
  out.set("reads_ok", static_cast<double>(ok));
  out.set("mutations", static_cast<double>(mutations));
  out.set("mutations_failed", static_cast<double>(mutations_failed));
  out.set("append_ms_p50", percentile(append_ms, 50));
  out.set("remove_ms_p50", percentile(remove_ms, 50));
  out.set("remove_ms_p90", percentile(remove_ms, 90));
  samples.report(out, search_wall);
  record_totals(db.accel, out);
}

/// paper_circuit's read stream: the condition-A reads with that error
/// profile set (HDAC pass), then the condition-B reads with theirs (TASR
/// rotations), in closed-loop chunks.
void search_conditions(Db& db, const std::string& dir, std::size_t chunk_size,
                       std::size_t threshold, Tracer& tracer,
                       ServiceSamples& samples, std::vector<ReadRow>& rows) {
  SearchService service(db.accel);
  const std::pair<const char*, ErrorRates> conditions[] = {
      {"/reads_a.fq", ErrorRates::condition_a()},
      {"/reads_b.fq", ErrorRates::condition_b()}};
  for (const auto& [file, rates] : conditions) {
    {
      auto span = tracer.span("db.set_error_profile");
      db.accel.set_error_profile(rates);
    }
    SeqStreamReader reads(dir + file);
    while (true) {
      std::vector<SeqRecord> chunk;
      {
        auto span = tracer.span("genome.read_chunk");
        chunk = reads.read_chunk(chunk_size);
      }
      if (chunk.empty()) break;
      search_chunk(service, std::move(chunk), threshold, tracer, samples,
                   rows);
    }
  }
}

void run_paper_circuit(const std::string& dir, bool tiny, bool setup_only,
                       Tracer& tracer, std::ostream& rows_out, Counters& out) {
  const Sizes s = sizes_for("paper_circuit", tiny);
  const DbSetup setup = db_setup("paper_circuit", tiny);
  auto run_span = tracer.span("bench.run");
  Db db(setup);
  build_db(db, setup, dir + "/ref.fa", tracer, out);
  std::cerr << "asmcap_benchdrv: ready" << std::endl;
  if (setup_only) return;

  std::vector<ReadRow> rows;
  ServiceSamples samples;
  const double search_start = now_s();
  search_conditions(db, dir, s.chunk, setup.threshold, tracer, samples, rows);
  const double search_wall = now_s() - search_start;
  write_inproc_rows(rows_out, rows,
                    [&](std::size_t id) { return db.index.label(id); });
  std::size_t ok = 0;
  for (const ReadRow& row : rows) ok += row.status[0] == 'o';
  out.set("reads", static_cast<double>(rows.size()));
  out.set("reads_ok", static_cast<double>(ok));
  samples.report(out, search_wall);
  record_totals(db.accel, out);
}

// ---------------------------------------------------------------- probe --

double parse_seconds(const std::vector<std::string>& paths,
                     std::vector<Sequence>* keep, std::size_t keep_max) {
  const double start = now_s();
  for (const std::string& path : paths) {
    SeqStreamReader reader(path);
    SeqRecord record;
    while (reader.next(record))
      if (keep != nullptr && keep->size() < keep_max) keep->push_back(record.seq);
  }
  return now_s() - start;
}

/// ns per stored row of one kernel over `rows`, against `reads` in turn,
/// repeated until at least 0.2 s has been timed. The kernel is called
/// through the dispatch table's function pointer, so no sweep is elided.
template <typename Kernel>
double kernel_ns_per_row(const PackedRowMatrix& rows,
                         const std::vector<PackedReadView>& reads,
                         Kernel kernel) {
  std::vector<std::uint32_t> counts(rows.rows());
  std::size_t sweeps = 0;
  const double start = now_s();
  double elapsed = 0.0;
  while (elapsed < 0.2) {
    for (const PackedReadView& view : reads) {
      kernel(rows.data(), rows.rows(), view, counts.data());
      ++sweeps;
    }
    elapsed = now_s() - start;
  }
  return elapsed * 1e9 / (static_cast<double>(sweeps) *
                          static_cast<double>(rows.rows()));
}

void probe(const std::string& workload, const std::string& dir, bool tiny,
           Counters& out) {
  std::vector<std::string> read_files;
  if (workload == "paper_circuit")
    read_files = {dir + "/reads_a.fq", dir + "/reads_b.fq"};
  else
    read_files = {dir + "/reads.fq"};

  out.set("genome.ref_parse_s", parse_seconds({dir + "/ref.fa"}, nullptr, 0));
  std::vector<Sequence> sample;
  out.set("genome.reads_parse_s", parse_seconds(read_files, &sample, 32));

  const DbSetup setup = db_setup(workload, tiny);
  {
    ShardedAccelerator half(setup.config, setup.shards);
    half.set_backend(setup.backend);
    SeqStreamReader reader(dir + "/ref_half.fa");
    const double start = now_s();
    ingest_reference(half, reader);
    out.set("ingest.half_ingest_s", now_s() - start);
  }

  std::vector<Sequence> tiles;
  std::vector<std::string> labels;
  load_tiles(dir + "/ref.fa", tiles, labels);
  const PackedRowMatrix rows(tiles, kWidth);
  std::vector<PackedReadView> ed_views, hd_views;
  for (const Sequence& read : sample) {
    ed_views.emplace_back(read);
    hd_views.emplace_back(read, false);
  }
  const KernelOps& ops = active_kernel_ops();
  out.set("kernel.ed_star_ns_per_row",
          kernel_ns_per_row(rows, ed_views, ops.ed_star_block));
  out.set("kernel.hamming_ns_per_row",
          kernel_ns_per_row(rows, hd_views, ops.hamming_block));

  if (workload == "paper_circuit") {
    // The same reads on the functional backend, for the per-backend split.
    Db db(setup);
    Tracer off(false, "");
    Counters ignored;
    DbSetup functional = setup;
    functional.backend = BackendKind::Functional;
    build_db(db, functional, dir + "/ref.fa", off, ignored);
    ServiceSamples samples;
    std::vector<ReadRow> rows_unused;
    search_conditions(db, dir, sizes_for(workload, tiny).chunk,
                      setup.threshold, off, samples, rows_unused);
    out.set("backend.functional.exec_ms_per_read", samples.exec_ms_per_read());
  }
}

// --------------------------------------------------------------- report --

/// Reads "key value" lines: `bench NAME`, `digest HEX`, `workload K V`,
/// `timing PATH WALL_S RATE`, `metric K V`.
void report(const std::string& path) {
  BenchReport r;
  r.kernel_tier = to_string(active_kernel_tier());
  r.hardware_threads = ThreadPool::hardware_workers();
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string kind, key;
    in >> kind >> key;
    double a = 0.0, b = 0.0;
    if (kind == "bench") {
      r.bench = key;
    } else if (kind == "digest") {
      r.decision_digest = std::stoull(key, nullptr, 16);
    } else if (kind == "workload" && (in >> a)) {
      r.workload.emplace_back(key, a);
    } else if (kind == "timing" && (in >> a >> b)) {
      r.timings.push_back({key, a, b});
    } else if (kind == "metric" && (in >> a)) {
      r.metrics.emplace_back(key, a);
    } else if (!kind.empty()) {
      throw std::invalid_argument("report: bad line '" + line + "'");
    }
  }
  write_bench_json(path, r);
}

/// Runs argv[0] as a child, passes on its exit status, and reports its
/// peak RSS. The child dies with this process (PR_SET_PDEATHSIG).
int spawn(char** argv) {
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    execvp(argv[0], argv);
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid)
    throw std::runtime_error("wait4 failed");
  std::fprintf(stderr, "asmcap_benchdrv: child maxrss_kb %ld\n",
               usage.ru_maxrss);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

[[noreturn]] void usage() {
  std::cerr << "usage: asmcap_benchdrv gen WORKLOAD DIR SEED [--tiny]\n"
               "       asmcap_benchdrv run WORKLOAD DIR [--tiny] [--trace] "
               "[--setup-only]\n"
               "       asmcap_benchdrv probe WORKLOAD DIR [--tiny]\n"
               "       asmcap_benchdrv report OUT.json < lines\n"
               "       asmcap_benchdrv spawn PROGRAM [ARGS...]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::string(argv[1]) == "spawn") {
    try {
      return spawn(argv + 2);
    } catch (const std::exception& e) {
      std::cerr << "asmcap_benchdrv: " << e.what() << "\n";
      return 1;
    }
  }
  std::vector<std::string> args(argv + 1, argv + argc);
  auto flag = [&](const std::string& name) {
    const auto it = std::find(args.begin(), args.end(), name);
    if (it == args.end()) return false;
    args.erase(it);
    return true;
  };
  const bool tiny = flag("--tiny");
  const bool trace = flag("--trace");
  const bool setup_only = flag("--setup-only");
  if (args.empty()) usage();
  const std::string mode = args[0];
  try {
    if (mode == "report" && args.size() == 2) {
      report(args[1]);
      return 0;
    }
    if (args.size() < 3) usage();
    const std::string workload = args[1];
    const std::string dir = args[2];
    if (mode == "gen" && args.size() == 4 && !is_cli(workload)) {
      Rng rng(std::stoull(args[3]));
      if (workload == "live_churn")
        gen_live_churn(dir, sizes_for(workload, tiny), rng);
      else
        gen_paper_circuit(dir, sizes_for(workload, tiny), rng);
      return 0;
    }
    Counters out;
    if (mode == "probe" && args.size() == 3) {
      probe(workload, dir, tiny, out);
      out.print();
      return 0;
    }
    if (mode != "run" || args.size() != 3) usage();
    Tracer tracer(trace, workload + ":" + dir);
    std::ofstream rows(dir + (trace        ? "/rows.traced.tsv"
                              : setup_only ? "/rows.setup.tsv"
                                           : "/rows.tsv"));
    if (is_cli(workload))
      run_cli_replay(workload, dir, setup_only, tracer, rows, out);
    else if (workload == "live_churn")
      run_live_churn(dir, tiny, setup_only, tracer, rows, out);
    else
      run_paper_circuit(dir, tiny, setup_only, tracer, rows, out);
    rows.close();
    if (!rows) throw std::runtime_error("cannot write rows");
    if (trace) tracer.write(dir + "/trace.json");
    out.print();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "asmcap_benchdrv: " << e.what() << "\n";
    return 1;
  }
}

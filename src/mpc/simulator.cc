#include "mpc/simulator.h"

#include "common/check.h"
#include "obs/trace.h"
#include "par/thread_pool.h"

namespace lamp {

namespace {

/// One routed fact in a worker's outbox, as a columnar row reference. The
/// row pointer aims into the source server's local instance, which is
/// immutable for the whole communication phase — routing copies no facts.
struct Routed {
  transport::RowRef row;
  NodeId source;
};

/// Rows bound for one instance, counted per relation before any is
/// inserted, so the instance can be sized once (count, then scatter).
class RowCounts {
 public:
  void Add(RelationId relation, std::size_t arity, std::size_t rows) {
    if (rows == 0) return;
    if (relation >= rows_.size()) {
      rows_.resize(relation + 1, 0);
      arity_.resize(relation + 1, 0);
    }
    if (rows_[relation] == 0) arity_[relation] = arity;
    rows_[relation] += rows;
  }

  void ReserveIn(Instance& instance) const {
    for (RelationId r = 0; r < rows_.size(); ++r) {
      instance.Reserve(r, arity_[r], rows_[r]);
    }
  }

 private:
  std::vector<std::size_t> rows_;
  std::vector<std::size_t> arity_;
};

}  // namespace

MpcSimulator::MpcSimulator(std::size_t num_servers) {
  LAMP_CHECK(num_servers > 0);
  locals_.resize(num_servers);
}

void MpcSimulator::LoadInput(const Instance& global) {
  const std::size_t p = locals_.size();
  locals_.assign(p, Instance());
  output_ = Instance();
  stats_ = RunStats();
  // Fact i of the global (relation, insertion) order goes to server
  // i % p. Each server's share of a relation is a stride of its rows:
  // reserve the share, then insert it in order.
  std::size_t offset = 0;  // Global index of the relation's first row.
  for (RelationId rel = 0; rel < global.RelationBound(); ++rel) {
    const RowsView rows = global.RowsOf(rel);
    if (rows.empty()) continue;
    for (std::size_t server = 0; server < p; ++server) {
      const std::size_t first = (server + p - offset % p) % p;
      if (first >= rows.num_rows) continue;
      Instance& local = locals_[server];
      local.Reserve(rel, rows.arity, (rows.num_rows - first + p - 1) / p);
      for (std::size_t j = first; j < rows.num_rows; j += p) {
        local.InsertRow(rel, rows.Row(j), rows.arity);
      }
    }
    offset += rows.num_rows;
  }
}

MpcRunResult MpcSimulator::TakeResult() && {
  return MpcRunResult{std::move(output_), std::move(stats_)};
}

void MpcSimulator::LoadLocals(std::vector<Instance> locals) {
  LAMP_CHECK(locals.size() == locals_.size());
  locals_ = std::move(locals);
  output_ = Instance();
  stats_ = RunStats();
}

void MpcSimulator::RunRound(const Router& route, const Computer& compute) {
  const std::size_t p = locals_.size();
  const auto round_idx = static_cast<std::uint32_t>(stats_.rounds.size());
  obs::Emit(obs::EventKind::kMpcRoundBegin, round_idx, 0, p);

  par::ThreadPool& pool = par::GlobalPool();

  // Communication phase, step 1: each worker routes a contiguous shard of
  // source servers into its own per-target outbox. Within an outbox the
  // routed facts appear in (source, fact, route-target) order — the order
  // the serial loop would visit them.
  std::vector<Instance> received(p);
  RoundStats round;
  round.received.assign(p, 0);
  round.wire_bytes.assign(p, 0);
  {
    obs::TraceSpan span("mpc.route", round_idx);
    const std::size_t shards = pool.NumChunks(p);
    std::vector<std::vector<std::vector<Routed>>> outbox(shards);
    pool.ParallelChunks(
        0, p,
        [this, p, &route, &outbox](std::size_t shard, std::size_t lo,
                                   std::size_t hi) {
          std::vector<std::vector<Routed>>& out = outbox[shard];
          out.resize(p);
          Fact scratch;  // Router argument, rebuilt per row.
          for (std::size_t source = lo; source < hi; ++source) {
            const auto src = static_cast<NodeId>(source);
            const Instance& local = locals_[source];
            for (RelationId rel = 0; rel < local.NumRelationIds(); ++rel) {
              const RowsView rows = local.RowsOf(rel);
              if (rows.num_rows == 0) continue;
              scratch.relation = rel;
              for (std::size_t i = 0; i < rows.num_rows; ++i) {
                const Value* row = rows.Row(i);
                scratch.args.assign(row, row + rows.arity);
                for (NodeId target : route(src, scratch)) {
                  LAMP_CHECK(target < p);
                  out[target].push_back(Routed{
                      transport::RowRef{
                          rel, row, static_cast<std::uint32_t>(rows.arity)},
                      src});
                }
              }
            }
          }
        });

    transport::Transport* wire = WireTransport();
    if (wire == nullptr) {
      // Step 2 (in-process): merge outboxes per target, ascending shard
      // order. Targets are independent, so the merge itself fans out; the
      // per-target insert sequence equals the serial one, keeping dedup
      // decisions and load counts byte-identical. The target's rows are
      // counted per relation and reserved before the first insert, so
      // the merge never grows storage. A fact kept at its
      // current server is not communicated: it persists but does not count
      // toward the load (the model's load is the data *received* by a
      // server during the round). Wire bytes are accounted in closed form:
      // the bytes the socket backends would ship for the same traffic,
      // one kFactBatch frame per (source, target) run.
      pool.ParallelFor(0, p, [&received, &round, &outbox,
                              round_idx](std::size_t target) {
        const auto tgt = static_cast<NodeId>(target);
        std::size_t& load = round.received[target];
        std::size_t& bytes = round.wire_bytes[target];
        NodeId run_source = 0;
        std::size_t run_count = 0;
        std::size_t run_fact_bytes = 0;
        const auto flush_run = [&] {
          if (run_count == 0) return;
          const std::size_t payload = transport::VarintSize(round_idx) +
                                      transport::VarintSize(run_count) +
                                      run_fact_bytes;
          bytes += transport::FactBatchFrameSize(run_source, tgt, payload);
          run_count = 0;
          run_fact_bytes = 0;
        };
        RowCounts counts;
        for (const auto& out : outbox) {
          for (const Routed& r : out[target]) {
            counts.Add(r.row.relation, r.row.arity, 1);
          }
        }
        counts.ReserveIn(received[target]);
        for (const auto& out : outbox) {
          for (const Routed& r : out[target]) {
            if (r.source != tgt) {
              if (run_count != 0 && r.source != run_source) flush_run();
              run_source = r.source;
              ++run_count;
              run_fact_bytes += transport::EncodedRowSize(r.row);
            }
            if (received[target].InsertRow(r.row.relation, r.row.row,
                                           r.row.arity) &&
                tgt != r.source) {
              ++load;
            }
          }
        }
        flush_run();
      });
    } else {
      // Step 2 (sockets): serialize each (source, target != source) run
      // into one kFactBatch frame and ship it. Sources are ascending per
      // target (shards are contiguous ascending ranges), so senders[t]
      // comes out ascending too.
      std::vector<std::vector<NodeId>> senders(p);
      std::vector<transport::RowRef> batch;
      for (const auto& out : outbox) {
        for (std::size_t target = 0; target < p; ++target) {
          const std::vector<Routed>& entries = out[target];
          std::size_t i = 0;
          while (i < entries.size()) {
            const NodeId src = entries[i].source;
            batch.clear();
            while (i < entries.size() && entries[i].source == src) {
              batch.push_back(entries[i].row);
              ++i;
            }
            if (src == static_cast<NodeId>(target)) continue;  // Stays local.
            transport::WireFrame frame;
            frame.type = transport::FrameType::kFactBatch;
            frame.from = src;
            frame.to = static_cast<std::uint32_t>(target);
            frame.payload = transport::EncodeFactBatchPayload(round_idx,
                                                              batch);
            wire->Send(std::move(frame));
            senders[target].push_back(src);
          }
        }
      }
      // Each target first drains and decodes its channels in ascending
      // source order and counts every incoming row, own entries included,
      // per relation; it reserves that many, then inserts in ascending
      // source order with the self-routed (local) entries at its own
      // position — the exact in-process insert sequence, so digests cannot
      // move.
      pool.ParallelFor(0, p, [&received, &round, &outbox, &senders, wire, p,
                              round_idx](std::size_t target) {
        const auto tgt = static_cast<NodeId>(target);
        std::vector<transport::FactBatchRows> batches(p);
        RowCounts counts;
        for (const NodeId source : senders[target]) {
          transport::WireFrame frame = wire->Recv(
              static_cast<std::uint32_t>(target), source);
          LAMP_CHECK(frame.type == transport::FrameType::kFactBatch);
          round.wire_bytes[target] += transport::FrameWireSize(frame);
          transport::FactBatchRows& batch = batches[source];
          LAMP_CHECK_MSG(
              transport::DecodeFactBatchRows(frame.payload, round_idx, batch),
              "mpc: malformed fact batch on the wire");
          batch.ForEachRun([&counts](RelationId relation, const Value*,
                                     std::size_t count, std::size_t arity) {
            counts.Add(relation, arity, count);
          });
        }
        for (const auto& out : outbox) {
          for (const Routed& r : out[target]) {
            if (r.source == tgt) counts.Add(r.row.relation, r.row.arity, 1);
          }
        }
        Instance& into = received[target];
        counts.ReserveIn(into);
        std::size_t& load = round.received[target];
        for (NodeId source = 0; source < p; ++source) {
          if (source != tgt) {
            batches[source].ForEachRun(
                [&into, &load](RelationId relation, const Value* rows,
                               std::size_t count, std::size_t arity) {
                  load += into.InsertRows(relation, rows, count, arity);
                });
            continue;
          }
          for (const auto& out : outbox) {
            for (const Routed& r : out[target]) {
              if (r.source == tgt) {
                into.InsertRow(r.row.relation, r.row.row, r.row.arity);
              }
            }
          }
        }
      });
    }
  }
  std::size_t round_total = 0;
  if (obs::InstalledTracer() != nullptr) {
    for (NodeId server = 0; server < p; ++server) {
      obs::Emit(obs::EventKind::kMpcServerLoad, round_idx,
                static_cast<std::uint32_t>(server), round.received[server]);
    }
    round_total = round.TotalLoad();
  }
  stats_.rounds.push_back(std::move(round));

  // Computation phase: servers are independent; results land in a
  // per-server slot and are folded into output in ascending server order,
  // matching the serial loop.
  {
    obs::TraceSpan span("mpc.compute", round_idx);
    std::vector<ComputeResult> results(p);
    pool.ParallelFor(0, p,
                     [&compute, &received, &results](std::size_t server) {
                       results[server] = compute(static_cast<NodeId>(server),
                                                 received[server]);
                     });
    RowCounts counts;
    for (const ComputeResult& result : results) {
      for (RelationId r = 0; r < result.output.RelationBound(); ++r) {
        counts.Add(r, result.output.ArityOf(r), result.output.NumRows(r));
      }
    }
    counts.ReserveIn(output_);
    for (NodeId server = 0; server < p; ++server) {
      locals_[server] = std::move(results[server].next_state);
      output_.InsertAll(results[server].output);
    }
  }
  obs::Emit(obs::EventKind::kMpcRoundEnd, round_idx, 0, round_total);
}

transport::Transport* MpcSimulator::WireTransport() {
  const transport::TransportKind kind = transport::ActiveKind();
  if (kind == transport::TransportKind::kInProcess) return nullptr;
  if (transport_ == nullptr || transport_->kind() != kind ||
      transport_->num_endpoints() != locals_.size()) {
    transport_ = transport::MakeLoopbackTransport(kind, locals_.size());
  }
  return transport_.get();
}

MpcSimulator::Computer MpcSimulator::KeepAll() {
  return [](NodeId, const Instance& received) {
    return ComputeResult{received, Instance()};
  };
}

Instance MpcSimulator::GlobalState() const {
  Instance global;
  for (const Instance& local : locals_) global.InsertAll(local);
  return global;
}

}  // namespace lamp

#include "mpc/simulator.h"

#include "common/check.h"
#include "obs/trace.h"
#include "par/thread_pool.h"

namespace lamp {

namespace {

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

Instance MpcSimulator::InputShare(const Instance& global, std::size_t p,
                                  NodeId server) {
  // The server's share of a relation is a stride of its rows: reserve the
  // share, then insert it in order.
  Instance local;
  std::size_t offset = 0;  // Global index of the relation's first row.
  for (RelationId rel = 0; rel < global.RelationBound(); ++rel) {
    const RowsView rows = global.RowsOf(rel);
    if (rows.empty()) continue;
    const std::size_t first = (server + p - offset % p) % p;
    if (first < rows.num_rows) {
      local.Reserve(rel, rows.arity, (rows.num_rows - first + p - 1) / p);
      for (std::size_t j = first; j < rows.num_rows; j += p) {
        local.InsertRow(rel, rows.Row(j), rows.arity);
      }
    }
    offset += rows.num_rows;
  }
  return local;
}

void MpcSimulator::LoadInput(const Instance& global) {
  const std::size_t p = locals_.size();
  for (std::size_t server = 0; server < p; ++server) {
    locals_[server] = InputShare(global, p, static_cast<NodeId>(server));
  }
  output_ = Instance();
  stats_ = RunStats();
}

void MpcSimulator::RouteServer(const Router& route, NodeId source,
                               const Instance& local, std::size_t num_servers,
                               Outbox& out) {
  out.assign(num_servers, Batch());
  Fact scratch;  // Router argument, rebuilt per row.
  for (RelationId rel = 0; rel < local.NumRelationIds(); ++rel) {
    const RowsView rows = local.RowsOf(rel);
    if (rows.num_rows == 0) continue;
    scratch.relation = rel;
    for (std::size_t i = 0; i < rows.num_rows; ++i) {
      const Value* row = rows.Row(i);
      scratch.args.assign(row, row + rows.arity);
      for (NodeId target : route(source, scratch)) {
        LAMP_CHECK(target < num_servers);
        out[target].push_back(transport::RowRef{
            rel, row, static_cast<std::uint32_t>(rows.arity)});
      }
    }
  }
}

MpcSimulator::MergeStats MpcSimulator::MergeServer(
    NodeId target, std::uint32_t round, const std::vector<const Batch*>& inbox,
    Instance& into) {
  RowCounts counts;
  for (const Batch* batch : inbox) {
    if (batch == nullptr) continue;
    for (const transport::RowRef& r : *batch) {
      counts.Add(r.relation, r.arity, 1);
    }
  }
  counts.ReserveIn(into);
  MergeStats stats;
  for (NodeId source = 0; source < inbox.size(); ++source) {
    if (inbox[source] == nullptr || inbox[source]->empty()) continue;
    const Batch& batch = *inbox[source];
    // A row kept at its current server persists, but is not communication
    // (the model's load is the data *received* during the round).
    const bool remote = source != target;
    std::size_t row_bytes = 0;
    for (const transport::RowRef& r : batch) {
      if (remote) row_bytes += transport::EncodedRowSize(r);
      if (into.InsertRow(r.relation, r.row, r.arity) && remote) ++stats.load;
    }
    if (!remote) continue;
    stats.wire_bytes += transport::FactBatchFrameSize(
        source, target,
        transport::VarintSize(round) + transport::VarintSize(batch.size()) +
            row_bytes);
  }
  return stats;
}

std::size_t MpcSimulator::ReceiveBatch(transport::Transport& wire,
                                       NodeId target, NodeId source,
                                       std::uint32_t round,
                                       transport::FactBatchRows& rows,
                                       Batch& refs) {
  const transport::WireFrame frame = wire.Recv(target, source);
  LAMP_CHECK_MSG(frame.type == transport::FrameType::kFactBatch &&
                     frame.from == source && frame.to == target,
                 "mpc: expected a fact batch on the wire");
  LAMP_CHECK_MSG(transport::DecodeFactBatchRows(frame.payload, round, rows),
                 "mpc: malformed fact batch on the wire");
  refs.clear();
  rows.AppendRowRefs(refs);
  return transport::FrameWireSize(frame);
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

  // Communication phase. Route step: every source routes its rows into
  // its own outbox. Merge step: every target inserts its batches in
  // ascending source order, so dedup decisions and load counts equal the
  // serial loop's at every thread count and on every backend.
  std::vector<Instance> received(p);
  RoundStats round;
  round.received.assign(p, 0);
  round.wire_bytes.assign(p, 0);
  {
    obs::TraceSpan span("mpc.route", round_idx);
    std::vector<Outbox> outbox(p);
    pool.ParallelFor(0, p, [this, p, &route, &outbox](std::size_t source) {
      RouteServer(route, static_cast<NodeId>(source), locals_[source], p,
                  outbox[source]);
    });

    transport::Transport* wire = WireTransport();
    if (wire != nullptr) {
      // Ship every nonempty cross-server batch as one frame. Receivers
      // know from the outboxes which sources sent them something.
      for (NodeId source = 0; source < p; ++source) {
        for (NodeId target = 0; target < p; ++target) {
          const Batch& batch = outbox[source][target];
          if (target != source && !batch.empty()) {
            wire->Send({transport::kWireVersion,
                        transport::FrameType::kFactBatch, source, target,
                        transport::EncodeFactBatchPayload(round_idx, batch)});
          }
        }
      }
    }
    pool.ParallelFor(0, p, [&received, &round, &outbox, wire, p,
                            round_idx](std::size_t target) {
      const auto tgt = static_cast<NodeId>(target);
      std::vector<const Batch*> inbox(p);
      std::vector<transport::FactBatchRows> decoded(wire != nullptr ? p : 0);
      std::vector<Batch> refs(wire != nullptr ? p : 0);
      std::size_t measured = 0;
      for (NodeId source = 0; source < p; ++source) {
        inbox[source] = &outbox[source][target];
        if (wire == nullptr || source == tgt || inbox[source]->empty()) {
          continue;
        }
        measured += ReceiveBatch(*wire, tgt, source, round_idx,
                                 decoded[source], refs[source]);
        inbox[source] = &refs[source];
      }
      const MergeStats stats =
          MergeServer(tgt, round_idx, inbox, received[target]);
      LAMP_CHECK_MSG(wire == nullptr || measured == stats.wire_bytes,
                     "mpc: measured wire bytes disagree with the closed form");
      round.received[target] = stats.load;
      round.wire_bytes[target] = stats.wire_bytes;
    });
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

#ifndef SSTORE_CLUSTER_TOPOLOGY_H_
#define SSTORE_CLUSTER_TOPOLOGY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "engine/execution_engine.h"
#include "engine/procedure.h"
#include "storage/schema.h"
#include "streaming/sstore.h"
#include "streaming/window.h"
#include "streaming/workflow.h"

namespace sstore {

/// Builds one partition's instance of a stored procedure. Called once per
/// partition at apply time: procedure bodies frequently capture their
/// partition's StreamManager or tables, and a per-store factory lets each
/// partition bind its own instance instead of sharing state across
/// partitions.
using ProcedureFactory =
    std::function<std::shared_ptr<StoredProcedure>(SStore&)>;

/// Where a workflow stage runs in a cluster (paper §4.7, the distributed
/// S-Store direction): replicated on every partition, pinned to one, or
/// spread across partitions by a key column of its input batches.
struct Placement {
  enum class Kind {
    /// The stage is deployed and triggered on every partition; it consumes
    /// whatever its upstream produces locally. Today's replicate-everything
    /// deployment is this placement for every node.
    kEverywhere,
    /// The stage runs on exactly one partition. Streams feeding it from any
    /// other partition become channels.
    kPinned,
    /// The stage runs on the partition owning `key_column` of each input
    /// row (the cluster's PartitionMap decides ownership). Batches reaching
    /// it through a channel are split by that column. Two stages keyed by
    /// the same column are assumed co-located per key (the key-preserving
    /// pipeline of the paper) and need no channel between them.
    kKeyed,
  };

  Kind kind = Kind::kEverywhere;
  size_t partition = 0;  // kPinned only
  int key_column = 0;    // kKeyed only: column of the stage's input rows

  static Placement Everywhere() { return Placement{}; }
  static Placement Pinned(size_t p) {
    return Placement{Kind::kPinned, p, 0};
  }
  static Placement Keyed(int column) {
    return Placement{Kind::kKeyed, 0, column};
  }

  /// Is the stage deployed on partition `p`? kKeyed stages are deployed on
  /// every partition (any partition may own some of their keys).
  bool RunsOn(size_t p) const {
    return kind != Kind::kPinned || partition == p;
  }

  /// "everywhere" | "pinned(2)" | "keyed(col 3)".
  std::string Describe() const;
};

/// One stream edge of a placed workflow that crosses a placement boundary:
/// batches emitted into `stream` on a producer partition must be transported
/// to the consumer stage's partition (cluster/stream_channel.h implements
/// the transport). Derived by TopologyBuilder::Build, never hand-built.
struct ChannelSpec {
  std::string stream;
  std::vector<std::string> producers;
  std::vector<Placement> producer_placements;  // aligned with `producers`
  std::string consumer;
  Placement consumer_placement;

  /// True when any producer stage of this channel is deployed on `p` (the
  /// partitions where the forwarding hook must be installed).
  bool ProducerRunsOn(size_t p) const;
};

/// A deployable application: the DDL/fragments/procedures it needs, a
/// workflow DAG with a Placement for every node, and the channels derived
/// from placement boundaries. It is the one input to `Cluster::Deploy`,
/// which applies each partition's *slice* — shared DDL everywhere, stage
/// procedures and PE triggers only where the stage runs, channel plumbing
/// on the partitions a boundary touches. The replicated deployment of the
/// paper (§4.7: the whole dataflow on every partition) is the case where
/// every stage is kEverywhere; a topology with no stages at all is a pure
/// OLTP application.
///
/// The slice is a pure function of the partition id, so every replica of
/// the application is provably identical — the property recovery relies on
/// when it re-creates a partition before log replay, and rebalancing relies
/// on when it stamps the application onto a partition spun up at runtime.
class Topology {
 public:
  const std::string& name() const { return workflow_.name(); }
  const Workflow& workflow() const { return workflow_; }
  const std::vector<ChannelSpec>& channels() const { return channels_; }

  Result<Placement> placement_of(const std::string& proc) const;

  /// Applies partition `p`'s slice of this topology to a freshly
  /// constructed store, in this order: every DDL step (in the order it was
  /// added; the first failure aborts, its error naming the step), the
  /// procedures whose stage (or OLTP registration) runs on `p`, channel
  /// consumer support (cursor table + delivery procedure), and the
  /// workflow slice's PE triggers. Applying twice to one store fails
  /// (kAlreadyExists from the first DDL step): one topology, one blank
  /// partition. Cluster::Rebalance applies the same slice to a partition
  /// spun up long after the original deploy; a single standalone store is
  /// partition 0.
  Status ApplyTo(SStore& store, size_t p) const;

  /// One line per DDL step ("<i>: <Kind> <description>"), procedure, stage
  /// (with placement annotation), and channel — for logs and deployment
  /// diffing.
  std::string Describe() const;

 private:
  friend class TopologyBuilder;
  Topology() = default;  // built only by TopologyBuilder::Build

  /// One shared step (table, index, seed row, stream, window, fragment),
  /// applied identically on every partition.
  struct DdlStep {
    const char* kind;         // "CreateTable", "InsertRow", ...
    std::string description;  // "table lr_vehicles", "seed row in lr_meta"
    std::function<Status(SStore&)> apply;
  };

  struct ProcedureSpec {
    std::string name;
    SpKind kind;
    ProcedureFactory factory;
    bool is_stage = false;  // stages deploy per placement; the rest everywhere
  };

  Workflow workflow_{""};
  /// Shared and immutable once built, so copying a topology (Cluster::Deploy
  /// retains one) does not copy every step's closure.
  std::shared_ptr<const std::vector<DdlStep>> ddl_;
  std::vector<ProcedureSpec> procedures_;
  std::map<std::string, Placement> placements_;
  std::vector<ChannelSpec> channels_;
};

/// Fluent builder for a Topology. The DDL steps record shared setup,
/// `RegisterProcedure` declares OLTP/helper procedures (deployed
/// everywhere), and `AddStage` declares a workflow node together with where
/// it runs. `Build()` validates the DAG and every placement, and derives
/// the channels.
///
///   TopologyBuilder topo("pipeline");
///   topo.DefineStream("sA", schema).DefineStream("sB", schema)
///       .CreateTable("sink", schema)
///       .RegisterProcedure("ingest", SpKind::kBorder, ingest_proc)
///       .RegisterProcedure("transform", SpKind::kInterior, transform_factory)
///       .AddStage(ingest_node, Placement::Pinned(0))
///       .AddStage(transform_node, Placement::Pinned(1));
///   SSTORE_ASSIGN_OR_RETURN(Topology t, topo.Build());
///   cluster.Deploy(t);
class TopologyBuilder {
 public:
  explicit TopologyBuilder(std::string name);

  // ---- Shared DDL steps (applied in order on every partition) ----

  TopologyBuilder& CreateTable(std::string name, Schema schema);
  /// Unique/non-unique hash index on an existing table.
  TopologyBuilder& CreateIndex(std::string table, std::string index,
                               std::vector<std::string> columns, bool unique);
  /// Seed row inserted at deployment time (e.g. metadata singletons).
  TopologyBuilder& InsertRow(std::string table, Tuple row);
  TopologyBuilder& DefineStream(std::string name, Schema schema);
  TopologyBuilder& DefineWindow(WindowSpec spec);
  TopologyBuilder& RegisterFragment(std::string name, FragmentFn fn);

  /// Registers a procedure. Stage procedures (named by a later AddStage)
  /// are deployed only where their placement runs; others deploy everywhere.
  TopologyBuilder& RegisterProcedure(std::string name, SpKind kind,
                                     ProcedureFactory factory);
  /// Convenience for stateless procedures safe to share across partitions.
  TopologyBuilder& RegisterProcedure(std::string name, SpKind kind,
                                     std::shared_ptr<StoredProcedure> proc);

  // ---- Stages and placement ----

  /// Adds a workflow node with its placement.
  TopologyBuilder& AddStage(WorkflowNode node,
                            Placement placement = Placement::Everywhere());

  /// Adopts every node of an existing workflow at kEverywhere — the
  /// replicated deployment. Combine with Place() to pin individual stages
  /// afterwards.
  TopologyBuilder& AddWorkflow(const Workflow& workflow);

  /// Overrides the placement of an already-added stage.
  TopologyBuilder& Place(const std::string& proc, Placement placement);

  /// Validates (DAG structure, placements, channel constraints) and derives
  /// the channels. Build errors are deferred here so the fluent chain stays
  /// unconditional. A builder with no stages builds an OLTP-only topology.
  Result<Topology> Build() const;

  /// Build, but a failure aborts the process with the error on stderr. For
  /// workloads whose chains are fixed, where a Build error is a programming
  /// error that must fail loudly, never deploy half an application.
  Topology BuildOrDie() const;

 private:
  TopologyBuilder& AddDdl(const char* kind, std::string description,
                          std::function<Status(SStore&)> apply);

  std::string name_;
  Topology topology_;
  std::vector<Topology::DdlStep> ddl_;
  std::vector<std::pair<WorkflowNode, Placement>> stages_;
  Status deferred_error_;  // first AddStage/Place error, reported by Build
};

}  // namespace sstore

#endif  // SSTORE_CLUSTER_TOPOLOGY_H_

/**
 * @file
 * Interconnect topology graph — the generalization of the single
 * GPU–host PCIe link to a fleet-scale interconnect. Nodes are endpoints
 * (GPUs, PCIe switches, host DRAM, an NVMe spill tier); links are
 * bidirectional edges, each carrying the full per-edge transfer state
 * the one-link model kept in a lone DuplexChannel: bandwidth, duplex
 * mode, arbitration policy, occupancy/contention accounting and an
 * optional fault-injector hook. A Route is a fewest-hops path through
 * the graph (GPU → switch → host DRAM, host → SSD, GPU → NVLink peer);
 * LinkNetwork instantiates one DuplexChannel per edge on a shared
 * EventQueue and moves transfers along routes store-and-forward, so N
 * GPUs offloading through one shared switch uplink contend exactly
 * where real hardware does.
 *
 * The historical two-endpoint model is the degenerate two-node graph
 * (Topology::pcieLink): one edge, whose routed timeline reproduces a
 * direct DuplexChannel submission event for event.
 */

#ifndef CDMA_SIM_TOPOLOGY_HH
#define CDMA_SIM_TOPOLOGY_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/channel.hh"

namespace cdma {

namespace sim {
class FaultInjector;
} // namespace sim

namespace obs {
class TraceRecorder;
} // namespace obs

/** Node handle in a Topology (index into its node table). */
using NodeId = uint32_t;

/** Link handle in a Topology (index into its link table). */
using LinkId = uint32_t;

/** What a topology node models. */
enum class NodeKind {
    Gpu,        ///< a GPU endpoint (offload source / prefetch sink)
    PcieSwitch, ///< a PCIe switch fanning GPUs into one upstream
    HostDram,   ///< host memory (the spill arena's home tier)
    NvmeSsd,    ///< NVMe spill tier below host DRAM
};

/** Display name of a node kind. */
const char *nodeKindName(NodeKind kind);

/** One topology node. */
struct TopologyNode {
    NodeKind kind = NodeKind::Gpu;
    std::string name;
};

/**
 * Static properties of one bidirectional edge. Direction::Out on the
 * edge's channel is a→b, Direction::In is b→a.
 */
struct LinkProps {
    double bytes_per_second = 0.0;
    DuplexMode mode = DuplexMode::Full;
    LinkArbiter arbiter = LinkArbiter::RoundRobin;
    /** Fixed per-crossing latency added to every transfer's service. */
    double latency_seconds = 0.0;
};

/** One edge of the topology: endpoints plus link properties. */
struct TopologyLink {
    NodeId a = 0;
    NodeId b = 0;
    std::string name;
    LinkProps props;

    /** The far endpoint as seen from @p node (must be an endpoint). */
    NodeId peer(NodeId node) const { return node == a ? b : a; }

    /** Channel direction that moves data from @p from across this edge. */
    DuplexChannel::Direction directionFrom(NodeId from) const
    {
        return from == a ? DuplexChannel::Direction::Out
                         : DuplexChannel::Direction::In;
    }
};

/** One hop of a route: an edge plus the direction of travel on it. */
struct RouteHop {
    LinkId link = 0;
    DuplexChannel::Direction direction = DuplexChannel::Direction::Out;
};

/** An ordered path through the topology from one node to another. */
struct Route {
    NodeId from = 0;
    NodeId to = 0;
    std::vector<RouteHop> hops;

    size_t hopCount() const { return hops.size(); }
    bool empty() const { return hops.empty(); }

    /** The same path walked back: hops reversed, directions flipped. */
    Route reversed() const
    {
        Route back;
        back.from = to;
        back.to = from;
        back.hops.reserve(hops.size());
        for (auto it = hops.rbegin(); it != hops.rend(); ++it) {
            back.hops.push_back(RouteHop{
                it->link,
                it->direction == DuplexChannel::Direction::Out
                    ? DuplexChannel::Direction::In
                    : DuplexChannel::Direction::Out});
        }
        return back;
    }
};

/**
 * Static interconnect graph: nodes, links, deterministic fewest-hops
 * routing. Build once, share read-only between engines (it carries no
 * simulation state — LinkNetwork instantiates the live per-edge
 * channels).
 */
class Topology
{
  public:
    /** Add a node; returns its handle. */
    NodeId addNode(NodeKind kind, std::string name);

    /** Connect @p a and @p b with an edge; returns its handle. */
    LinkId connect(NodeId a, NodeId b, std::string name,
                   const LinkProps &props);

    size_t nodeCount() const { return nodes_.size(); }
    size_t linkCount() const { return links_.size(); }

    const TopologyNode &node(NodeId id) const;
    const TopologyLink &link(LinkId id) const;

    /** Links incident to @p node, in insertion order. */
    const std::vector<LinkId> &linksAt(NodeId node) const;

    /** First node of @p kind, in insertion order; panics if absent. */
    NodeId firstNode(NodeKind kind) const;

    /** All nodes of @p kind, in insertion order. */
    std::vector<NodeId> nodesOfKind(NodeKind kind) const;

    /**
     * Deterministic fewest-hops route from @p from to @p to (BFS;
     * ties broken toward the lowest link id). Panics when the nodes are
     * not connected — a topology bug, not a runtime condition.
     */
    Route route(NodeId from, NodeId to) const;

    /**
     * The degenerate two-node graph the historical single-link model
     * is: one GPU, one host, one PCIe edge. TransferEngine builds this
     * when no explicit topology is configured, so every transfer is
     * priced over a route.
     */
    static std::shared_ptr<const Topology>
    pcieLink(double bytes_per_second, DuplexMode mode = DuplexMode::Full,
             LinkArbiter arbiter = LinkArbiter::RoundRobin);

  private:
    std::vector<TopologyNode> nodes_;
    std::vector<TopologyLink> links_;
    std::vector<std::vector<LinkId>> adjacency_;
};

/** Aggregated service record of one routed (multi-hop) transfer. */
struct RouteGrant {
    SimTime queued_at = 0.0; ///< submit time at the source node
    SimTime start = 0.0;     ///< first hop's service start
    SimTime end = 0.0;       ///< last hop's last byte serviced
    /** Sum of per-hop service times (excludes inter-hop queue waits). */
    SimTime service_seconds = 0.0;
    /** Sum of per-hop opposing-direction waits (half-duplex edges). */
    SimTime opposing_wait = 0.0;
    /** Sum of per-hop same-direction foreign-source waits — the
     *  multi-tenant contention this transfer paid along its route. */
    SimTime cross_source_wait = 0.0;
};

/**
 * Live simulation state of a topology: one DuplexChannel per edge on a
 * shared EventQueue, plus the per-edge fault-injector hooks. Transfers
 * move along routes store-and-forward: a hop is submitted when the
 * previous hop's last byte lands (the switch buffers one transfer unit,
 * matching the staging-shard granularity of the transfer pipelines).
 */
class LinkNetwork
{
  public:
    using Completion = std::function<void(const RouteGrant &)>;

    /** @p topology must outlive the network. */
    LinkNetwork(EventQueue &queue, const Topology &topology);

    const Topology &topology() const { return topology_; }
    EventQueue &queue() { return queue_; }

    /** Live channel of edge @p link. */
    DuplexChannel &channel(LinkId link);
    const DuplexChannel &channel(LinkId link) const;

    /**
     * Attach a fault process to edge @p link (non-owning; nullptr
     * detaches). The topology itself never samples it — transfer flows
     * that price faults consult the edge injector per crossing, the
     * same contract CdmaConfig::fault_injector had on the one link.
     */
    void setFaultInjector(LinkId link, sim::FaultInjector *injector);

    /** Fault process of edge @p link (nullptr = perfect edge). */
    sim::FaultInjector *faultInjector(LinkId link) const;

    /**
     * Move @p bytes along @p route; @p on_done fires with the
     * aggregated grant when the last hop's last byte is serviced.
     * @p extra_latency rides on the first hop (retry backoff holds the
     * source's DMA slot, not a mid-route switch buffer). @p source tags
     * every hop for cross-source contention accounting.
     */
    void submit(const Route &route, uint64_t bytes, Completion on_done,
                SimTime extra_latency = 0.0, unsigned source = 0);

    /**
     * Attach a trace recorder (non-owning; nullptr detaches). Registers
     * one span track per edge direction plus a utilization counter
     * track per edge under the "edges" trace process; every completed
     * hop then emits a "wire" span with queue/opposing/cross-source
     * wait attribution. Per-edge-per-direction service is FIFO, so the
     * spans on each track are disjoint.
     */
    void setTrace(obs::TraceRecorder *trace);

    /** Attached trace recorder (nullptr = tracing off). */
    obs::TraceRecorder *trace() const { return trace_; }

    /**
     * Write the channel layer's own per-edge byte totals into the trace
     * ledger (`wire_bytes.<edge>:<dir>` in otherData) so validators can
     * check the emitted spans conserve bytes against an independently
     * accumulated source. Call once after the event queue drains.
     */
    void recordTraceTotals();

    /** Bytes that crossed edge @p link in @p direction. */
    uint64_t edgeBytes(LinkId link,
                       DuplexChannel::Direction direction) const;

    /**
     * Utilization of edge @p link over [0, now]: wall-clock seconds the
     * edge had at least one direction in service, over elapsed time.
     */
    double utilization(LinkId link) const;

  private:
    /** Shared state of one in-flight routed transfer. */
    struct Transit {
        Route route; ///< owned copy — hops outlive the caller's Route
        uint64_t bytes = 0;
        unsigned source = 0;
        RouteGrant grant;
        Completion on_done;
    };

    void submitHop(std::shared_ptr<Transit> transit, size_t hop,
                   SimTime extra_latency);

    /** Emit the trace span + utilization sample for one serviced hop. */
    void traceHop(const RouteHop &hop, const DuplexChannel::Grant &grant,
                  uint64_t bytes, unsigned source);

    EventQueue &queue_;
    const Topology &topology_;
    std::vector<std::unique_ptr<DuplexChannel>> channels_;
    std::vector<sim::FaultInjector *> injectors_;
    obs::TraceRecorder *trace_ = nullptr;
    /** Per edge: {out span track, in span track, utilization counter}. */
    std::vector<std::array<uint32_t, 3>> edge_tracks_;
};

} // namespace cdma

#endif // CDMA_SIM_TOPOLOGY_HH

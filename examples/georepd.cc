// georepd — one datacenter of a real EunomiaKV geo-replicated deployment.
//
// Hosts a full geo::rt::GeoNode (partitions + Eunomia stabilizer +
// Algorithm 5 receiver on one event loop) behind a TCP listener, and dials
// the metadata + payload links to every peer datacenter — the runtime that
// the simulator reproduces figures with, deployed on real sockets.
//
//   # a 3-DC deployment on one machine:
//   georepd --dc=0 --listen=127.0.0.1:9100 --peers=-,127.0.0.1:9101,127.0.0.1:9102
//   georepd --dc=1 --listen=127.0.0.1:9101 --peers=127.0.0.1:9100,-,127.0.0.1:9102
//   georepd --dc=2 --listen=127.0.0.1:9102 --peers=127.0.0.1:9100,127.0.0.1:9101,-
//
// Flags:
//   --dc=N           this node's datacenter id            (default 0)
//   --dcs=N          datacenters in the deployment        (default 3)
//   --partitions=N   partitions per datacenter            (default 8)
//   --listen=H:P     listen address                       (default 127.0.0.1:9100)
//   --peers=A,B,...  peer addresses indexed by dc id; the self entry is
//                    ignored (use "-"). Dials retry until every peer is up.
//   --data-dir=PATH  write-ahead-log directory. The node logs every local
//                    install and inbound metadata/payload before processing,
//                    snapshots periodically, and recovers from the directory
//                    on startup — a kill -9'd datacenter rejoins from its
//                    own WAL with incremental catch-up from peers. Also
//                    enables peer-history retention (replay to restarting
//                    peers), truncated by their durable acks.
//   --fsync=POLICY   commit | interval | off  (default commit; needs
//                    --data-dir)
//   --metrics-port=N serve GET /metrics (Prometheus text exposition) and
//                    GET /healthz on the listen host at port N (0 =
//                    ephemeral) and register the node's per-dc series
//                    (visibility histograms, receiver queue depths,
//                    replay/reconnect counters)
//   --smoke          self-drive: spin up the whole multi-DC deployment
//                    in-process over ephemeral TCP ports, run causally
//                    chained clients at every datacenter, verify causal
//                    visibility order and store convergence, and check the
//                    deployment's own /metrics endpoint for the key series
//                    (present and monotone), exit 0/1. Used by ctest/CI.
//
// The daemon runs until SIGINT/SIGTERM, printing a stats line every ~5 s.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/flags.h"
#include "src/georep/runtime/geo_node.h"
#include "src/metrics/metrics_server.h"
#include "src/metrics/registry.h"
#include "src/net/epoll_transport.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

using eunomia::metrics::SeriesSum;

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(csv.substr(start));
      break;
    }
    out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

// The ctest/CI smoke path: the full deployment in one process, every
// cross-DC byte over real loopback TCP sockets.
int RunSmoke(std::uint32_t num_dcs, std::uint32_t partitions) {
  using namespace eunomia;
  geo::GeoConfig config;
  config.num_dcs = num_dcs;
  config.partitions_per_dc = partitions;
  config.batch_interval_us = 200;
  config.theta_us = 200;
  config.delta_us = 200;
  config.rho_us = 200;

  metrics::MetricsServer metrics_server;
  const std::string metrics_address = metrics_server.Start("127.0.0.1:0");
  if (metrics_address.empty()) {
    std::fprintf(stderr, "georepd --smoke: could not bind a metrics port\n");
    return 1;
  }

  std::vector<std::unique_ptr<net::EpollTransport>> transports;
  std::vector<std::unique_ptr<geo::rt::GeoNode>> nodes;
  std::vector<std::string> addresses;
  for (DatacenterId m = 0; m < num_dcs; ++m) {
    transports.push_back(std::make_unique<net::EpollTransport>());
    geo::rt::GeoNode::Options node_options;
    node_options.dc = m;
    node_options.config = config;
    node_options.detailed_visibility = true;
    // All nodes share the process registry: series are per-dc labeled. A
    // fast mirror tick so the short smoke run sees fresh values.
    node_options.metrics = &metrics::Registry::Default();
    node_options.metrics_interval_us = 50'000;
    nodes.push_back(std::make_unique<geo::rt::GeoNode>(transports.back().get(),
                                                       node_options));
    addresses.push_back(nodes.back()->Listen("127.0.0.1:0"));
    if (addresses.back().empty()) {
      std::fprintf(stderr, "georepd --smoke: dc%u could not bind a port\n", m);
      return 1;
    }
  }
  for (DatacenterId m = 0; m < num_dcs; ++m) {
    for (DatacenterId k = 0; k < num_dcs; ++k) {
      if (k != m && !nodes[m]->ConnectPeer(k, addresses[k])) {
        std::fprintf(stderr, "georepd --smoke: dc%u could not dial dc%u\n", m,
                     k);
        return 1;
      }
    }
  }
  for (auto& node : nodes) {
    node->Start();
  }
  // Early scrape: the counters below must never move backwards from here.
  std::string scrape1;
  if (!metrics::HttpGet(metrics_address, "/metrics", &scrape1)) {
    std::fprintf(stderr, "georepd --smoke: early GET /metrics failed\n");
    return 1;
  }
  std::printf("georepd --smoke: %u datacenters over TCP (", num_dcs);
  for (DatacenterId m = 0; m < num_dcs; ++m) {
    std::printf("%s%s", m > 0 ? " " : "", addresses[m].c_str());
  }
  std::printf(")\n");

  // One causally chained client per datacenter: update then read, repeat.
  constexpr int kOpsPerDc = 20;
  std::atomic<int> updates_done{0};
  std::vector<std::shared_ptr<std::function<void(int)>>> issues;
  for (DatacenterId m = 0; m < num_dcs; ++m) {
    const ClientId client = 100 + m;
    auto issue = std::make_shared<std::function<void(int)>>();
    issues.push_back(issue);
    geo::rt::GeoNode* node = nodes[m].get();
    *issue = [node, client, m, issue, &updates_done](int i) {
      if (i >= kOpsPerDc) {
        return;
      }
      const Key key = 1000 * m + i;
      node->ClientUpdate(client, key, "georepd-v" + std::to_string(i),
                         [node, client, key, issue, i, &updates_done] {
                           node->ClientRead(client, key,
                                            [issue, i, &updates_done] {
                                              updates_done.fetch_add(1);
                                              (*issue)(i + 1);
                                            });
                         });
    };
    (*issue)(0);
  }

  // Every datacenter applies every remote update.
  const std::uint64_t expected_remote =
      static_cast<std::uint64_t>(kOpsPerDc) * (num_dcs - 1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool converged = false;
  while (!converged && std::chrono::steady_clock::now() < deadline) {
    converged = true;
    for (auto& node : nodes) {
      std::uint64_t applied = 0;
      node->RunBlocking(
          [&] { applied = node->runtime().receiver().applied_count(); });
      converged = converged && applied == expected_remote;
    }
    if (!converged) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  // Causal chains must be visible in order at every remote datacenter, and
  // all stores must converge to identical contents.
  bool ordered = true;
  for (DatacenterId d = 0; d < num_dcs && converged; ++d) {
    auto& node = *nodes[d];
    node.RunBlocking([&] {
      for (DatacenterId o = 0; o < num_dcs; ++o) {
        if (o == d) {
          continue;
        }
        std::uint64_t prev = 0;
        for (int i = 0; i < kOpsPerDc; ++i) {
          // Origin o's uid stream: o + i * num_dcs.
          const auto t = node.tracker().VisibleAt(
              o + static_cast<std::uint64_t>(i) * num_dcs, d);
          if (!t.has_value() || *t < prev) {
            ordered = false;
            return;
          }
          prev = *t;
        }
      }
    });
  }
  auto snapshot = [&](DatacenterId d) {
    std::map<Key, Value> contents;
    nodes[d]->RunBlocking([&] {
      for (PartitionId p = 0; p < partitions; ++p) {
        nodes[d]->runtime().StoreAt(p).ForEach(
            [&](Key k, const eunomia::geo::GeoVersion& v) {
              contents[k] = v.value;
            });
      }
    });
    return contents;
  };
  bool identical = converged;
  if (converged) {
    const auto dc0 = snapshot(0);
    identical = dc0.size() == static_cast<std::size_t>(kOpsPerDc) * num_dcs;
    for (DatacenterId d = 1; d < num_dcs; ++d) {
      identical = identical && dc0 == snapshot(d);
    }
  }
  // Self-scrape: let two mirror ticks pass so the gauges/counters reflect
  // the converged state, then assert the key per-dc series are present and
  // the counters are monotone across the run.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  std::string health;
  std::string scrape2;
  bool metrics_ok = metrics::HttpGet(metrics_address, "/healthz", &health) &&
                    health == "ok\n" &&
                    metrics::HttpGet(metrics_address, "/metrics", &scrape2);
  if (metrics_ok) {
    bool buffered_found = false;
    bool pending_found = false;
    SeriesSum(scrape2, "eunomia_georep_buffered_payloads", &buffered_found);
    SeriesSum(scrape2, "eunomia_georep_pending_applies", &pending_found);
    metrics_ok =
        buffered_found && pending_found &&
        SeriesSum(scrape2,
                  "eunomia_georep_visibility_latency_microseconds_count") >
            0 &&
        SeriesSum(scrape2, "eunomia_georep_updates_installed_total") > 0 &&
        SeriesSum(scrape2, "eunomia_net_frames_in_total") > 0;
    for (const char* counter :
         {"eunomia_georep_updates_installed_total",
          "eunomia_georep_visibility_latency_microseconds_count",
          "eunomia_net_frames_in_total", "eunomia_net_bytes_out_total"}) {
      metrics_ok = metrics_ok &&
                   SeriesSum(scrape2, counter) >= SeriesSum(scrape1, counter);
    }
  }

  std::uint64_t wire_errors = 0;
  for (auto& node : nodes) {
    wire_errors += node->wire_errors() + node->send_failures();
    node->Stop();
  }
  metrics_server.Stop();
  // The driver chains are self-referential (each function captures the
  // shared_ptr that owns it); with every event loop joined, break the
  // cycles so the sessions they capture can be reclaimed.
  for (auto& issue : issues) {
    *issue = nullptr;
  }
  if (!converged || !ordered || !identical || wire_errors != 0 ||
      !metrics_ok) {
    std::fprintf(stderr,
                 "georepd --smoke: FAILED (converged=%d ordered=%d "
                 "identical=%d wire_errors=%llu metrics_ok=%d)\n",
                 converged ? 1 : 0, ordered ? 1 : 0, identical ? 1 : 0,
                 static_cast<unsigned long long>(wire_errors),
                 metrics_ok ? 1 : 0);
    return 1;
  }
  std::printf(
      "georepd --smoke: OK — %d updates per DC over %u DCs, causal order "
      "preserved, stores identical (%d ops/DC driven); /metrics served %zu "
      "bytes with key series present and monotone\n",
      kOpsPerDc, num_dcs, updates_done.load(), scrape2.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  eunomia::bench::Flags flags(argc, argv,
                              {"dc", "dcs", "partitions", "listen", "peers",
                               "data-dir", "fsync", "metrics-port", "smoke"});
  if (!flags.ok()) {
    return flags.FailUsage();
  }
  const auto dc = static_cast<eunomia::DatacenterId>(flags.GetUint("dc", 0));
  const auto num_dcs = static_cast<std::uint32_t>(flags.GetUint("dcs", 3));
  const auto partitions =
      static_cast<std::uint32_t>(flags.GetUint("partitions", 8));
  if (flags.smoke()) {
    return RunSmoke(num_dcs, partitions);
  }
  if (dc >= num_dcs) {
    std::fprintf(stderr, "georepd: --dc=%u out of range (--dcs=%u)\n", dc,
                 num_dcs);
    return 2;
  }

  eunomia::geo::GeoConfig config;
  config.num_dcs = num_dcs;
  config.partitions_per_dc = partitions;
  eunomia::geo::rt::GeoNode::Options node_options;
  node_options.dc = dc;
  node_options.config = config;
  std::unique_ptr<eunomia::wal::PosixDisk> disk;
  const std::string data_dir = flags.Get("data-dir", "");
  if (!data_dir.empty()) {
    disk = std::make_unique<eunomia::wal::PosixDisk>(data_dir);
    if (!disk->ok()) {
      std::fprintf(stderr, "georepd: cannot open --data-dir=%s\n",
                   data_dir.c_str());
      return 1;
    }
    node_options.durability_disk = disk.get();
    if (!eunomia::wal::ParseFsyncPolicy(flags.Get("fsync", "commit"),
                                        &node_options.fsync)) {
      std::fprintf(stderr,
                   "--fsync must be commit, interval or off (got '%s')\n",
                   flags.Get("fsync", "commit").c_str());
      return 2;
    }
    // Keep what we send until peers durably ack it — a restarting peer gets
    // the gap replayed on reconnect.
    node_options.retain_peer_history = true;
  } else if (flags.Has("fsync")) {
    std::fprintf(stderr, "--fsync requires --data-dir\n");
    return 2;
  }
  if (flags.Has("metrics-port")) {
    node_options.metrics = &eunomia::metrics::Registry::Default();
  }
  eunomia::net::EpollTransport transport;
  eunomia::geo::rt::GeoNode node(&transport, node_options);
  const std::string bound =
      node.Listen(flags.Get("listen", "127.0.0.1:9100"));
  if (bound.empty()) {
    std::fprintf(stderr, "georepd: could not listen on %s\n",
                 flags.Get("listen", "127.0.0.1:9100").c_str());
    return 1;
  }
  eunomia::metrics::MetricsServer metrics_server;
  if (flags.Has("metrics-port")) {
    // Same host as the data listener, the metrics port next to it.
    const std::string listen = flags.Get("listen", "127.0.0.1:9100");
    const std::size_t colon = listen.rfind(':');
    const std::string host =
        colon == std::string::npos ? "127.0.0.1" : listen.substr(0, colon);
    const std::string metrics_bound = metrics_server.Start(
        host + ":" + std::to_string(flags.GetUint("metrics-port", 0)));
    if (metrics_bound.empty()) {
      std::fprintf(stderr, "georepd: could not bind --metrics-port\n");
      return 1;
    }
    std::printf("georepd: metrics on http://%s/metrics\n",
                metrics_bound.c_str());
  }
  std::printf("georepd: dc%u serving %u partitions on %s%s%s\n", dc,
              partitions, bound.c_str(),
              disk != nullptr ? ", wal fsync=" : "",
              disk != nullptr ? eunomia::wal::FsyncPolicyName(node_options.fsync)
                              : "");

  const std::vector<std::string> peers = SplitCsv(flags.Get("peers", ""));
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  for (eunomia::DatacenterId k = 0; k < num_dcs && g_stop == 0; ++k) {
    if (k == dc || k >= peers.size() || peers[k].empty() || peers[k] == "-") {
      continue;
    }
    while (g_stop == 0 && !node.ConnectPeer(k, peers[k])) {
      std::printf("georepd: waiting for dc%u at %s ...\n", k,
                  peers[k].c_str());
      std::this_thread::sleep_for(std::chrono::seconds(1));
    }
  }
  node.Start();
  std::printf("georepd: dc%u running\n", dc);

  int tick = 0;
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    if (++tick % 25 == 0) {  // every ~5 s
      std::uint64_t installed = 0;
      std::uint64_t applied = 0;
      node.RunBlocking([&] {
        installed = node.runtime().updates_installed();
        applied = node.runtime().receiver().applied_count();
      });
      std::printf(
          "georepd: dc%u installed=%llu remote_applied=%llu wire_errors=%llu "
          "send_failures=%llu\n",
          dc, static_cast<unsigned long long>(installed),
          static_cast<unsigned long long>(applied),
          static_cast<unsigned long long>(node.wire_errors()),
          static_cast<unsigned long long>(node.send_failures()));
    }
  }
  std::printf("georepd: shutting down\n");
  metrics_server.Stop();
  node.Stop();
  return 0;
}

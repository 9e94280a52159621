#include "core/config_args.h"

#include <charconv>
#include <stdexcept>
#include <vector>

#include "gf/kernels.h"
#include "obs/json.h"

namespace icollect {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument("config args: " + what);
}

double parse_double(std::string_view key, std::string_view value) {
  double out{};
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    bad("bad numeric value for '" + std::string(key) + "': '" +
        std::string(value) + "'");
  }
  return out;
}

std::size_t parse_size(std::string_view key, std::string_view value) {
  std::size_t out{};
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    bad("bad integer value for '" + std::string(key) + "': '" +
        std::string(value) + "'");
  }
  return out;
}

}  // namespace

void apply_config_args(p2p::ProtocolConfig& cfg,
                       std::span<const std::string_view> args) {
  for (const std::string_view arg : args) {
    const auto eq = arg.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      bad("expected key=value, got '" + std::string(arg) + "'");
    }
    const std::string_view key = arg.substr(0, eq);
    const std::string_view value = arg.substr(eq + 1);
    if (key == "peers") {
      cfg.num_peers = parse_size(key, value);
    } else if (key == "lambda") {
      cfg.lambda = parse_double(key, value);
    } else if (key == "s") {
      cfg.segment_size = parse_size(key, value);
    } else if (key == "mu") {
      cfg.mu = parse_double(key, value);
    } else if (key == "gamma") {
      cfg.gamma = parse_double(key, value);
    } else if (key == "buffer") {
      cfg.buffer_cap = parse_size(key, value);
    } else if (key == "servers") {
      cfg.num_servers = parse_size(key, value);
    } else if (key == "c") {
      cfg.set_normalized_capacity(parse_double(key, value));
    } else if (key == "server_rate") {
      cfg.server_rate = parse_double(key, value);
    } else if (key == "payload") {
      cfg.payload_bytes = parse_size(key, value);
    } else if (key == "seed") {
      cfg.seed = parse_size(key, value);
    } else if (key == "degree") {
      cfg.mean_degree = parse_size(key, value);
    } else if (key == "churn") {
      const double lifetime = parse_double(key, value);
      cfg.churn.enabled = lifetime > 0.0;
      cfg.churn.mean_lifetime = lifetime;
    } else if (key == "topology") {
      if (value == "complete") {
        cfg.topology = p2p::TopologyKind::kComplete;
      } else if (value == "erdos-renyi") {
        cfg.topology = p2p::TopologyKind::kErdosRenyi;
      } else if (value == "random-regular") {
        cfg.topology = p2p::TopologyKind::kRandomRegular;
      } else {
        bad("unknown topology '" + std::string(value) + "'");
      }
    } else if (key == "lifetimes") {
      if (value == "exponential") {
        cfg.churn.distribution = p2p::LifetimeDistribution::kExponential;
      } else if (value == "pareto") {
        cfg.churn.distribution = p2p::LifetimeDistribution::kPareto;
      } else {
        bad("unknown lifetime distribution '" + std::string(value) + "'");
      }
    } else if (key == "pareto_shape") {
      cfg.churn.pareto_shape = parse_double(key, value);
    } else if (key == "loss") {
      cfg.gossip_loss = parse_double(key, value);
    } else if (key == "gossip") {
      if (value == "uniform") {
        cfg.gossip_policy = p2p::GossipPolicy::kUniformSegment;
      } else if (value == "newest") {
        cfg.gossip_policy = p2p::GossipPolicy::kNewestFirst;
      } else if (value == "rarest") {
        cfg.gossip_policy = p2p::GossipPolicy::kRarestFirst;
      } else {
        bad("unknown gossip policy '" + std::string(value) + "'");
      }
    } else if (key == "pull") {
      const auto policy = p2p::parse_pull_policy(value);
      if (!policy) bad("unknown pull policy '" + std::string(value) + "'");
      cfg.pull_policy = *policy;
    } else if (key == "fidelity") {
      if (value == "real-coding") {
        cfg.fidelity = p2p::CollectionFidelity::kRealCoding;
      } else if (value == "state-counter") {
        cfg.fidelity = p2p::CollectionFidelity::kStateCounter;
      } else {
        bad("unknown fidelity '" + std::string(value) + "'");
      }
    } else {
      bad("unknown key '" + std::string(key) + "'");
    }
  }
  cfg.validate();
}

p2p::ProtocolConfig parse_config_args(int argc, const char* const* argv) {
  p2p::ProtocolConfig cfg;
  std::vector<std::string_view> args;
  args.reserve(static_cast<std::size_t>(argc > 1 ? argc - 1 : 0));
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  apply_config_args(cfg, args);
  return cfg;
}

std::string describe(const p2p::ProtocolConfig& cfg) {
  std::string out;
  out += "N=" + std::to_string(cfg.num_peers);
  out += " lambda=" + std::to_string(cfg.lambda);
  out += " s=" + std::to_string(cfg.segment_size);
  out += " mu=" + std::to_string(cfg.mu);
  out += " gamma=" + std::to_string(cfg.gamma);
  out += " B=" + std::to_string(cfg.buffer_cap);
  out += " c=" + std::to_string(cfg.normalized_capacity());
  out += " servers=" + std::to_string(cfg.num_servers);
  out += " topology=";
  out += to_string(cfg.topology);
  out += " fidelity=";
  out += to_string(cfg.fidelity);
  if (cfg.churn.enabled) {
    out += " churn(E[L]=" + std::to_string(cfg.churn.mean_lifetime) + "," +
           to_string(cfg.churn.distribution) + ")";
  }
  if (cfg.pull_policy != p2p::PullPolicy::kUniformNonEmpty) {
    out += " pull=";
    out += to_string(cfg.pull_policy);
  }
  if (cfg.gossip_policy != p2p::GossipPolicy::kUniformSegment) {
    out += " gossip=";
    out += to_string(cfg.gossip_policy);
  }
  out += " seed=" + std::to_string(cfg.seed);
  return out;
}

std::string config_json(const p2p::ProtocolConfig& cfg) {
  obs::JsonObject churn;
  churn.field("enabled", cfg.churn.enabled)
      .field("mean_lifetime", cfg.churn.mean_lifetime)
      .field_str("lifetimes", to_string(cfg.churn.distribution))
      .field("pareto_shape", cfg.churn.pareto_shape);
  obs::JsonObject o;
  o.field("peers", cfg.num_peers)
      .field("lambda", cfg.lambda)
      .field("s", cfg.segment_size)
      .field("mu", cfg.mu)
      .field("gamma", cfg.gamma)
      .field("buffer", cfg.buffer_cap)
      .field("servers", cfg.num_servers)
      .field("server_rate", cfg.server_rate)
      .field("c", cfg.normalized_capacity())
      .field("payload", cfg.payload_bytes)
      .field("seed", cfg.seed)
      .field_str("topology", to_string(cfg.topology))
      .field("degree", cfg.mean_degree)
      .field_str("fidelity", to_string(cfg.fidelity))
      .field_str("pull", to_string(cfg.pull_policy))
      .field_str("gossip", to_string(cfg.gossip_policy))
      .field("loss", cfg.gossip_loss)
      .field_str("gf_kernel", gf::Kernels::active().name)
      .field_raw("churn", churn.str());
  return o.str();
}

const char* config_args_help() noexcept {
  return "  peers=N lambda=X s=N mu=X gamma=X buffer=N servers=N c=X\n"
         "  server_rate=X payload=N seed=N degree=N churn=E[L] (0=off)\n"
         "  lifetimes=exponential|pareto pareto_shape=A (>1)\n"
         "  topology=complete|erdos-renyi|random-regular\n"
         "  fidelity=real-coding|state-counter\n"
         "  pull=non-empty|all|rarest|deficit (server pull scheduling)\n"
         "  gossip=uniform|newest|rarest loss=P (transit drop prob)\n";
}

}  // namespace icollect

#include "exp/sweep_plan.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "util/json.h"
#include "util/rng.h"

namespace fairsched::exp {

namespace {

std::string exact(double v) { return json_exact_double(v); }

// Binds one axis value onto the workload parameters shared by every policy
// of the cell. kHorizon (per-point horizon) and kPolicyParam (per-point
// PolicySpec parameters) do not touch the workload and are bound
// separately.
void apply_axis_value(const SweepAxis& axis, double value, SweepWorkload& w) {
  switch (axis.bind) {
    case SweepAxis::Bind::kOrgs:
      w.orgs = static_cast<std::uint32_t>(value);
      break;
    case SweepAxis::Bind::kZipfS:
      w.zipf_s = value;
      break;
    case SweepAxis::Bind::kSplit:
      w.split = value == 0.0 ? MachineSplit::kZipf : MachineSplit::kUniform;
      break;
    case SweepAxis::Bind::kUnitJobsPerOrg:
      w.unit_jobs_per_org = static_cast<std::uint32_t>(value);
      break;
    case SweepAxis::Bind::kRandomJobs:
      w.random_jobs = static_cast<std::size_t>(value);
      break;
    case SweepAxis::Bind::kHorizon:
    case SweepAxis::Bind::kPolicyParam:
    case SweepAxis::Bind::kStrategy:
    case SweepAxis::Bind::kDeviatorOrg:
    case SweepAxis::Bind::kDeviationParam:
      break;
  }
}

void validate_axis(const SweepSpec& spec, const SweepAxis& axis,
                   const PolicyRegistry& registry) {
  auto fail = [&](const std::string& why) {
    throw std::invalid_argument("sweep '" + spec.name + "': axis '" +
                                axis.name + "' " + why);
  };
  if (axis.name.empty()) fail("has no name");
  if (axis.values.empty()) fail("has no values");
  if (axis.scope == SweepAxis::Scope::kPolicy &&
      default_axis_scope(axis.bind) != SweepAxis::Scope::kPolicy) {
    // A policy-scoped axis shares one generated instance across all its
    // values; an axis that reshapes the workload (or horizon) must not,
    // or every non-representative value would simulate the wrong world.
    fail("cannot be policy-scoped: its bind reshapes the workload");
  }
  // Strategy scope and the strategy binds imply each other: a strategy
  // axis shares the honest prefix across its values, which is only sound
  // for binds that transform the declared job stream after the honest
  // instance exists — and those binds must never be grouped any other way.
  if ((axis.scope == SweepAxis::Scope::kStrategy) !=
      (default_axis_scope(axis.bind) == SweepAxis::Scope::kStrategy)) {
    fail(axis.scope == SweepAxis::Scope::kStrategy
             ? "cannot be strategy-scoped: its bind is not a strategy bind"
             : "is a strategy bind and must keep strategy scope");
  }
  for (double v : axis.values) {
    if (axis.integral) {
      // Range-check before the round-trip cast: double -> integer overflow
      // is undefined behavior, and an out-of-range orgs value would
      // otherwise silently simulate a different consortium than the CSV
      // row is labeled with. kOrgs/kUnitJobsPerOrg/kRandomJobs bind onto
      // 32-bit fields; kHorizon and int-typed policy parameters onto
      // 64-bit ones.
      const double limit = axis.bind == SweepAxis::Bind::kHorizon ||
                                   axis.bind ==
                                       SweepAxis::Bind::kPolicyParam
                               ? 9.0e18
                               : 4294967295.0;  // uint32 max
      if (!(v >= 0 && v <= limit) ||
          v != static_cast<double>(static_cast<std::int64_t>(v))) {
        fail("requires integer values in [0, " +
             std::to_string(static_cast<std::int64_t>(limit)) + "], got " +
             std::to_string(v));
      }
    }
    switch (axis.bind) {
      case SweepAxis::Bind::kOrgs:
      case SweepAxis::Bind::kHorizon:
      case SweepAxis::Bind::kUnitJobsPerOrg:
        if (v < 1) fail("values must be >= 1");
        break;
      case SweepAxis::Bind::kZipfS:
        if (!(v >= 0)) fail("values must be non-negative");
        break;
      case SweepAxis::Bind::kSplit:
        if (v != 0.0 && v != 1.0) {
          fail("values must be 0 (zipf) or 1 (uniform)");
        }
        break;
      case SweepAxis::Bind::kRandomJobs:
        if (v < 0) fail("values must be non-negative");
        break;
      case SweepAxis::Bind::kStrategy:
        if (v < 0 || static_cast<std::size_t>(v) >= spec.deviations.size()) {
          fail("value " + std::to_string(static_cast<std::int64_t>(v)) +
               " is outside the deviation grid [0, " +
               std::to_string(spec.deviations.size()) +
               ") (declare deviations via the strategy subcommand or a "
               "[strategy] config block)");
        }
        break;
      case SweepAxis::Bind::kDeviatorOrg:
        if (v < 0) fail("values must be non-negative org indices");
        break;
      case SweepAxis::Bind::kDeviationParam:
        if (v < 0) fail("values must be non-negative");
        break;
      case SweepAxis::Bind::kPolicyParam:
        // Checked against each declaring policy's parameter range, so the
        // error can name both the axis and the declaration it violates.
        for (const std::string& name : spec.policies) {
          const PolicySpec policy = registry.make(name);
          const ParamDecl* decl =
              registry.param_for_axis(policy.base, axis.name);
          if (decl && !decl->in_range(v)) {
            fail("value " + PolicyParam::of_real(v).to_string() +
                 " is out of range for policy '" + name +
                 "' parameter '" + decl->key + "' (must be " +
                 decl->range_text() + ")");
          }
        }
        break;
    }
  }
}

// The canonical string the plan fingerprint hashes: every spec dimension
// that shapes output, nothing that only shapes execution (threads, cache
// budget/dir, title/note). v2 (the open policy API): policies and the
// baseline contribute their registry *content keys* — which embed a
// config-defined policy's whole definition — not just their names, so two
// processes that loaded different definitions of one policy name can
// never produce merge-compatible fingerprints.
std::string fingerprint_content(const SweepPlan& plan) {
  const SweepSpec& spec = plan.spec;
  std::string content =
      "plan|v2|name=" + spec.name +
      "|instances=" + std::to_string(spec.instances) +
      "|seed=" + std::to_string(spec.seed) +
      "|horizon=" + std::to_string(spec.horizon) + "|baseline=" +
      (plan.has_baseline ? plan.registry->content_key(plan.baseline)
                         : std::string("none"));
  for (const PolicySpec& policy : plan.algorithms) {
    content += "|policy=" + plan.registry->content_key(policy);
  }
  for (const SweepWorkload& workload : spec.workloads) {
    content += "|workload=" +
               workload_content_key(workload, spec.horizon, spec.seed);
  }
  for (const SweepAxis& axis : spec.axes) {
    content += "|axis=" + axis.name;
    content += std::string("|scope=") + axis_scope_name(axis.scope);
    for (double v : axis.values) content.append(",").append(exact(v));
  }
  // Appended only for strategy sweeps, so every pre-strategy fingerprint
  // is unchanged. The grid order matters (strategy axis values index it).
  for (const strategy::DeviationSpec& dev : spec.deviations) {
    content += "|deviation=" + deviation_kind_name(dev.kind) + ":" +
               std::to_string(dev.param);
  }
  return content;
}

}  // namespace

SweepShard parse_shard_spec(const std::string& text) {
  if (text.empty()) return {};
  auto fail = [&](const std::string& why) {
    throw std::invalid_argument("malformed shard spec '" + text + "': " +
                                why + " (want --shard=INDEX/COUNT, e.g. "
                                "--shard=0/3)");
  };
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) fail("missing '/'");
  auto parse_part = [&](const std::string& part, const char* what) {
    if (part.empty()) fail(std::string(what) + " is empty");
    for (char c : part) {
      if (!std::isdigit(static_cast<unsigned char>(c))) {
        fail(std::string(what) + " '" + part +
             "' is not a non-negative integer");
      }
    }
    if (part.size() > 9) fail(std::string(what) + " '" + part + "' is huge");
    return static_cast<std::size_t>(std::stoul(part));
  };
  SweepShard shard;
  shard.index = parse_part(text.substr(0, slash), "shard index");
  shard.count = parse_part(text.substr(slash + 1), "shard count");
  if (shard.count == 0) fail("shard count must be >= 1");
  if (shard.index >= shard.count) {
    fail("shard index " + std::to_string(shard.index) +
         " must be < count " + std::to_string(shard.count));
  }
  return shard;
}

std::string synthetic_content_key(const SyntheticSpec& s) {
  return "syn:" + std::to_string(s.total_machines) + "," +
         std::to_string(s.users) + "," + exact(s.session_rate) + "," +
         exact(s.mean_batch) + "," + exact(s.batch_spacing) + "," +
         exact(s.job_mu) + "," + exact(s.job_sigma) + "," +
         std::to_string(s.min_job) + "," + std::to_string(s.max_job) +
         "," + exact(s.load_jitter_sigma) + "," +
         std::to_string(s.jitter_period) + "," +
         exact(s.user_weight_sigma) + "," + exact(s.user_mu_sigma);
}

std::string workload_content_key(const SweepWorkload& workload, Time horizon,
                                 std::uint64_t seed) {
  std::string key =
      "wl:" + std::to_string(static_cast<int>(workload.kind)) + ":";
  switch (workload.kind) {
    case SweepWorkload::Kind::kSynthetic:
      key += synthetic_content_key(workload.spec) +
             ":orgs=" + std::to_string(workload.orgs) +
             ":split=" + std::to_string(static_cast<int>(workload.split)) +
             ":zipf=" + exact(workload.zipf_s);
      break;
    case SweepWorkload::Kind::kUnitJobs:
      key += "unit:orgs=" + std::to_string(workload.orgs) +
             ":jobs=" + std::to_string(workload.unit_jobs_per_org);
      break;
    case SweepWorkload::Kind::kSmallRandom:
      key += "smallrandom:jobs=" + std::to_string(workload.random_jobs);
      break;
  }
  key += ":horizon=" + std::to_string(horizon) +
         ":seed=" + std::to_string(seed);
  return key;
}

SweepPlan build_sweep_plan(const SweepSpec& spec,
                           const PolicyRegistry& registry, SweepShard shard) {
  if (spec.policies.empty()) {
    throw std::invalid_argument("sweep '" + spec.name + "': no policies");
  }
  if (spec.workloads.empty()) {
    throw std::invalid_argument("sweep '" + spec.name + "': no workloads");
  }
  if (spec.instances == 0) {
    throw std::invalid_argument("sweep '" + spec.name + "': no instances");
  }
  for (const SweepAxis& axis : spec.axes) {
    validate_axis(spec, axis, registry);
    for (const SweepAxis& other : spec.axes) {
      if (&axis != &other && axis.name == other.name) {
        throw std::invalid_argument("sweep '" + spec.name +
                                    "': duplicate axis '" + axis.name + "'");
      }
    }
  }

  SweepPlan plan;
  plan.spec = spec;
  plan.shard = shard;
  plan.registry = &registry;

  // Resolve every name up front so a typo fails before hours of compute.
  plan.algorithms.reserve(spec.policies.size());
  for (const std::string& name : spec.policies) {
    plan.algorithms.push_back(registry.make(name));
  }
  plan.has_baseline = !spec.baseline.empty();
  if (plan.has_baseline) plan.baseline = registry.make(spec.baseline);

  plan.num_points = num_axis_points(spec);
  plan.num_workloads = spec.workloads.size();
  plan.num_policies = spec.policies.size();
  plan.num_tasks = plan.num_points * plan.num_workloads * spec.instances;

  // Bind every axis point up front: per point the horizon and the policy
  // specs (kPolicyParam axes, routed through the registry's parameter
  // declarations), per (point, workload) the workload parameters. All
  // O(cells), never O(runs).
  plan.horizons.assign(plan.num_points, spec.horizon);
  plan.bound_algorithms.resize(plan.num_points * plan.num_policies);
  plan.bound_workloads.resize(plan.num_points * plan.num_workloads);
  for (std::size_t a = 0; a < plan.num_points; ++a) {
    const std::vector<double> values = axis_point_values(spec, a);
    for (std::size_t p = 0; p < plan.num_policies; ++p) {
      PolicySpec alg = plan.algorithms[p];
      for (std::size_t j = 0; j < spec.axes.size(); ++j) {
        if (spec.axes[j].bind == SweepAxis::Bind::kPolicyParam) {
          registry.bind_axis_value(alg, spec.axes[j].name, values[j]);
        }
      }
      plan.bound_algorithms[a * plan.num_policies + p] = alg;
    }
    for (std::size_t j = 0; j < spec.axes.size(); ++j) {
      if (spec.axes[j].bind == SweepAxis::Bind::kHorizon) {
        plan.horizons[a] = static_cast<Time>(values[j]);
      }
    }
    for (std::size_t w = 0; w < plan.num_workloads; ++w) {
      SweepWorkload workload = spec.workloads[w];
      for (std::size_t j = 0; j < spec.axes.size(); ++j) {
        apply_axis_value(spec.axes[j], values[j], workload);
      }
      plan.bound_workloads[a * plan.num_workloads + w] = std::move(workload);
    }
  }

  // Strategy resolution: the effective (deviation, deviator) of every axis
  // point, plus the cross-field checks single-axis validation cannot do.
  {
    bool has_strategy_axis = false;
    bool has_other_strategy_axis = false;
    for (const SweepAxis& axis : spec.axes) {
      has_strategy_axis |= axis.bind == SweepAxis::Bind::kStrategy;
      has_other_strategy_axis |=
          axis.bind == SweepAxis::Bind::kDeviatorOrg ||
          axis.bind == SweepAxis::Bind::kDeviationParam;
    }
    if (has_strategy_axis && spec.deviations.empty()) {
      // Unreachable past validate_axis (an empty grid rejects every id),
      // but the message is the one a bare axis misuse should see.
      throw std::invalid_argument(
          "sweep '" + spec.name + "': a strategy axis needs a deviation "
          "grid (use the strategy subcommand or a [strategy] config block)");
    }
    if (!has_strategy_axis && (spec.is_strategy() ||
                               has_other_strategy_axis)) {
      throw std::invalid_argument(
          "sweep '" + spec.name + "': deviator-org/deviation-param axes "
          "and deviation grids apply only with a strategy axis");
    }
    plan.point_deviations.assign(plan.num_points,
                                 strategy::DeviationSpec{});
    plan.point_deviators.assign(plan.num_points, 0);
    if (spec.is_strategy()) {
      bool has_honest = false;
      for (const strategy::DeviationSpec& dev : spec.deviations) {
        strategy::validate_deviation(dev);
        has_honest |= dev.kind == strategy::DeviationSpec::Kind::kHonest;
      }
      if (!has_honest) {
        throw std::invalid_argument(
            "sweep '" + spec.name + "': the deviation grid needs an "
            "honest entry (the manipulation-gain reference)");
      }
      for (std::size_t a = 0; a < plan.num_points; ++a) {
        plan.point_deviations[a] = sweep_point_deviation(spec, a);
        plan.point_deviators[a] = sweep_point_deviator(spec, a);
      }
      for (std::size_t a = 0; a < plan.num_points; ++a) {
        for (std::size_t w = 0; w < plan.num_workloads; ++w) {
          const SweepWorkload& workload =
              plan.bound_workloads[a * plan.num_workloads + w];
          if (workload.kind == SweepWorkload::Kind::kSmallRandom) {
            // Its org count is drawn per instance, so no deviator index
            // can be validated (or held fixed) across the sweep.
            throw std::invalid_argument(
                "sweep '" + spec.name + "': workload '" + workload.name +
                "' draws a random org count and cannot host a strategy "
                "sweep");
          }
          if (plan.point_deviators[a] >= workload.orgs) {
            throw std::invalid_argument(
                "sweep '" + spec.name + "': deviator org " +
                std::to_string(plan.point_deviators[a]) +
                " is out of range for workload '" + workload.name +
                "' (" + std::to_string(workload.orgs) + " orgs)");
          }
        }
      }
    }
  }

  // Group axis points sharing every workload-scoped axis value: points of
  // a group differ only in policy-scoped values, so for a fixed (workload,
  // instance) they share the generated instance, the baseline run, and the
  // runs of every policy whose bound spec the group does not vary.
  plan.group_of.assign(plan.num_points, 0);
  {
    std::map<std::vector<double>, std::size_t> index;
    for (std::size_t a = 0; a < plan.num_points; ++a) {
      const std::vector<double> values = axis_point_values(spec, a);
      std::vector<double> key;
      key.reserve(values.size());
      for (std::size_t j = 0; j < spec.axes.size(); ++j) {
        if (spec.axes[j].scope == SweepAxis::Scope::kWorkload) {
          key.push_back(values[j]);
        }
      }
      const auto [it, inserted] =
          index.try_emplace(std::move(key), plan.group_rep.size());
      if (inserted) {
        plan.group_rep.push_back(a);
        plan.group_size.push_back(0);
      }
      plan.group_of[a] = it->second;
      ++plan.group_size[it->second];
    }
  }
  plan.num_groups = plan.group_rep.size();

  // Per (group, policy): slot of the policy's record inside the group's
  // cached prefix, or kNoSlot when the policy's bound spec varies within
  // the group (the policy-dependent suffix, re-run per axis point).
  plan.shared_slot.assign(plan.num_groups * plan.num_policies,
                          SweepPlan::kNoSlot);
  std::vector<char> invariant(plan.num_groups * plan.num_policies, 1);
  for (std::size_t a = 0; a < plan.num_points; ++a) {
    const std::size_t g = plan.group_of[a];
    // A policy run is only group-invariant where the played deviation is
    // too: strategy axes vary the declared job stream within a group (by
    // design — that is what shares the honest prefix), so their points
    // must re-run every policy rather than replay the representative's.
    const bool strategy_invariant =
        plan.point_deviations[a] ==
            plan.point_deviations[plan.group_rep[g]] &&
        plan.point_deviators[a] == plan.point_deviators[plan.group_rep[g]];
    for (std::size_t p = 0; p < plan.num_policies; ++p) {
      invariant[g * plan.num_policies + p] &=
          strategy_invariant &&
          plan.bound_algorithms[a * plan.num_policies + p] ==
              plan.bound_algorithms[plan.group_rep[g] * plan.num_policies +
                                    p];
    }
  }
  // Strategy sweeps share the prefix (instance + honest baseline) across
  // the whole deviation grid but never policy records: the persisted
  // prefix payload does not carry strategy gradings, and a grid with a
  // single repeated deviation is not worth a payload-shape fork.
  if (!spec.is_strategy()) {
    for (std::size_t g = 0; g < plan.num_groups; ++g) {
      std::size_t slot = 0;
      for (std::size_t p = 0; p < plan.num_policies; ++p) {
        if (invariant[g * plan.num_policies + p]) {
          plan.shared_slot[g * plan.num_policies + p] = slot++;
        }
      }
    }
  }

  // A policy-scoped axis must bind some selected policy, or it sweeps
  // every cell into identical copies — a config error worth failing
  // loudly on, not silently cache-deduplicating. Bindings are derived
  // from the registry's parameter declarations: the axis is live exactly
  // when a selected policy's entry declares a parameter bound to it
  // (which is also what bind_axis_value rebinds above — declarations and
  // reality cannot drift apart).
  std::string inert_axes;
  for (const SweepAxis& axis : spec.axes) {
    if (axis.scope != SweepAxis::Scope::kPolicy) continue;
    bool declared = false;
    for (const PolicySpec& policy : plan.algorithms) {
      declared |=
          registry.param_for_axis(policy.base, axis.name) != nullptr;
    }
    if (!declared) {
      if (!inert_axes.empty()) inert_axes += "', '";
      inert_axes += axis.name;
    }
  }
  if (!inert_axes.empty()) {
    throw std::invalid_argument(
        "sweep '" + spec.name + "': axis '" + inert_axes +
        "' binds no selected policy (e.g. half-life needs a "
        "decayfairshare entry); add such a policy or drop the axis");
  }

  // Shard ownership: tasks of the families `shard` owns, ascending (the
  // shard's fold order), plus this shard's planned uses of each synthetic
  // window key — the number of owned (group, workload) families per
  // (workload, horizon), since each one's prefix computes ask for the
  // window once per instance.
  plan.shard_tasks.reserve(shard.whole()
                               ? plan.num_tasks
                               : plan.num_tasks / shard.count + 1);
  for (std::size_t t = 0; t < plan.num_tasks; ++t) {
    if (plan.owns_task(t)) plan.shard_tasks.push_back(t);
  }
  for (std::size_t g = 0; g < plan.num_groups; ++g) {
    for (std::size_t w = 0; w < plan.num_workloads; ++w) {
      if (plan.shard_of_family(g * plan.num_workloads + w) != shard.index) {
        continue;
      }
      ++plan.window_uses[{w, plan.horizons[plan.group_rep[g]]}];
    }
  }

  plan.fingerprint = hash_fnv1a64(fingerprint_content(plan));
  return plan;
}

void write_spec_summary_json(std::ostream& out, const SweepSpec& spec,
                             const std::string& indent) {
  const std::string inner = indent + "  ";
  out << "{\n";
  out << inner << "\"name\": \"" << json_escape(spec.name) << "\",\n";
  out << inner << "\"title\": \"" << json_escape(spec.title) << "\",\n";
  out << inner << "\"note\": \"" << json_escape(spec.note) << "\",\n";
  out << inner << "\"instances\": " << spec.instances << ",\n";
  out << inner << "\"seed\": " << spec.seed << ",\n";
  out << inner << "\"horizon\": " << spec.horizon << ",\n";
  out << inner << "\"baseline\": \"" << json_escape(spec.baseline)
      << "\",\n";
  out << inner << "\"policies\": [";
  for (std::size_t p = 0; p < spec.policies.size(); ++p) {
    if (p) out << ", ";
    out << '"' << json_escape(spec.policies[p]) << '"';
  }
  out << "],\n";
  out << inner << "\"workloads\": [";
  for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
    if (w) out << ", ";
    out << '"' << json_escape(spec.workloads[w].name) << '"';
  }
  out << "],\n";
  // Additive schema: only strategy sweeps carry a deviation grid, so every
  // pre-strategy artifact byte stays put.
  if (spec.is_strategy()) {
    out << inner << "\"deviations\": [";
    for (std::size_t d = 0; d < spec.deviations.size(); ++d) {
      if (d) out << ", ";
      out << '"' << json_escape(deviation_label(spec.deviations[d])) << '"';
    }
    out << "],\n";
  }
  out << inner << "\"axes\": [";
  for (std::size_t j = 0; j < spec.axes.size(); ++j) {
    const SweepAxis& axis = spec.axes[j];
    if (j) out << ", ";
    // "integral" lets a reader reconstruct labels for a policy-parameter
    // axis its own registry does not know (a config-defined policy's
    // parameter read back by `merge` without the config file).
    out << "{\"name\": \"" << json_escape(axis.name) << "\", \"scope\": \""
        << axis_scope_name(axis.scope) << "\", \"integral\": "
        << (axis.integral ? "true" : "false") << ", \"values\": [";
    for (std::size_t v = 0; v < axis.values.size(); ++v) {
      if (v) out << ", ";
      out << exact(axis.values[v]);
    }
    out << "]";
    if (!axis.value_labels.empty()) {
      out << ", \"labels\": [";
      for (std::size_t v = 0; v < axis.value_labels.size(); ++v) {
        if (v) out << ", ";
        out << '"' << json_escape(axis.value_labels[v]) << '"';
      }
      out << "]";
    }
    out << "}";
  }
  out << "]\n" << indent << "}";
}

SweepSpec spec_from_summary_json(const JsonValue& summary) {
  SweepSpec spec;
  spec.name = summary.at("name").as_string();
  spec.title = summary.at("title").as_string();
  spec.note = summary.at("note").as_string();
  spec.instances = static_cast<std::size_t>(summary.at("instances")
                                                .as_uint());
  spec.seed = summary.at("seed").as_uint();
  spec.horizon = summary.at("horizon").as_int();
  spec.baseline = summary.at("baseline").as_string();
  for (const JsonValue& policy : summary.at("policies").items()) {
    spec.policies.push_back(policy.as_string());
  }
  for (const JsonValue& name : summary.at("workloads").items()) {
    // Only the reporter-visible name survives the artifact round trip;
    // the generator parameters do not, so a reconstructed spec reports a
    // finished sweep but cannot re-run one.
    SweepWorkload workload;
    workload.name = name.as_string();
    spec.workloads.push_back(std::move(workload));
  }
  if (const JsonValue* deviations = summary.find("deviations")) {
    for (const JsonValue& dev : deviations->items()) {
      spec.deviations.push_back(strategy::parse_deviation(dev.as_string()));
    }
  }
  for (const JsonValue& axis_json : summary.at("axes").items()) {
    std::vector<double> values;
    for (const JsonValue& v : axis_json.at("values").items()) {
      values.push_back(v.as_double());
    }
    const std::string name = axis_json.at("name").as_string();
    SweepAxis axis;
    try {
      axis = make_axis(name, values);
    } catch (const std::invalid_argument&) {
      // A policy-parameter axis of a policy this process has not loaded
      // (e.g. `merge` without the defining --config). Reporting needs
      // only the name, values and label form, all of which the summary
      // carries; the axis cannot be re-executed, matching the rest of
      // the reconstructed spec.
      axis.name = name;
      axis.bind = SweepAxis::Bind::kPolicyParam;
      axis.param = name;
      axis.values = std::move(values);
    }
    // The writing process's label form wins over this process's catalog
    // (absent in pre-redesign artifacts, whose axes make_axis resolves).
    if (const JsonValue* integral = axis_json.find("integral")) {
      axis.integral = integral->as_bool();
    }
    if (const JsonValue* labels = axis_json.find("labels")) {
      for (const JsonValue& label : labels->items()) {
        axis.value_labels.push_back(label.as_string());
      }
    }
    const std::string& scope = axis_json.at("scope").as_string();
    if (scope == "workload") {
      axis.scope = SweepAxis::Scope::kWorkload;
    } else if (scope == "policy") {
      axis.scope = SweepAxis::Scope::kPolicy;
    } else if (scope == "strategy") {
      axis.scope = SweepAxis::Scope::kStrategy;
    } else {
      throw std::invalid_argument("bad axis scope '" + scope + "'");
    }
    spec.axes.push_back(std::move(axis));
  }
  return spec;
}

void write_plan_json(std::ostream& out, const SweepPlan& plan,
                     bool include_tasks) {
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(plan.fingerprint));
  out << "{\n";
  out << "  \"format\": \"fairsched-sweep-plan\",\n";
  // Version 2: the open policy API — fingerprints hash policy *content
  // keys* (registry definitions included), not just policy names.
  out << "  \"version\": 2,\n";
  out << "  \"fingerprint\": \"" << fp << "\",\n";
  out << "  \"shard\": {\"index\": " << plan.shard.index
      << ", \"count\": " << plan.shard.count << "},\n";
  out << "  \"spec\": ";
  write_spec_summary_json(out, plan.spec, "  ");
  out << ",\n";
  out << "  \"axis_points\": " << plan.num_points << ",\n";
  out << "  \"prefix_groups\": " << plan.num_groups << ",\n";
  out << "  \"tasks\": " << plan.num_tasks << ",\n";
  out << "  \"runs\": " << plan.num_tasks * plan.num_policies << ",\n";
  out << "  \"runs_per_task\": " << plan.num_policies << ",\n";
  out << "  \"shard_tasks\": " << plan.shard_tasks.size() << ",\n";
  out << "  \"groups\": [\n";
  for (std::size_t g = 0; g < plan.num_groups; ++g) {
    out << "    {\"group\": " << g
        << ", \"representative_point\": " << plan.group_rep[g]
        << ", \"points\": " << plan.group_size[g] << "}"
        << (g + 1 < plan.num_groups ? ",\n" : "\n");
  }
  out << "  ]";
  if (include_tasks) {
    out << ",\n  \"task_list\": [\n";
    for (std::size_t t = 0; t < plan.num_tasks; ++t) {
      const std::size_t a = plan.task_point(t);
      const std::size_t w = plan.task_workload(t);
      const std::size_t i = plan.task_instance(t);
      const std::size_t family = plan.family_of_task(t);
      out << "    {\"task\": " << t << ", \"point\": " << a
          << ", \"workload\": " << w << ", \"instance\": " << i
          << ", \"seed\": "
          << mix_seed(plan.spec.seed, w * plan.spec.instances + i)
          << ", \"group\": " << plan.group_of[a]
          << ", \"family\": " << family
          << ", \"shard\": " << plan.shard_of_family(family)
          << ", \"first_run\": " << plan.run_id(t, 0) << "}"
          << (t + 1 < plan.num_tasks ? ",\n" : "\n");
    }
    out << "  ]";
  }
  out << "\n}\n";
}

}  // namespace fairsched::exp

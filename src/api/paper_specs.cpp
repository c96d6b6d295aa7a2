#include "api/paper_specs.h"

#include <algorithm>

#include "api/serialize.h"
#include "common/error.h"
#include "common/table.h"
#include "synth/benchmarks.h"

namespace lsqca::api::specs {
namespace {

/** The 1/2/4 factory axis shared by the figure sweeps. */
SweepAxis
factoriesAxis()
{
    SweepAxis axis;
    axis.label = "factories";
    for (const std::int32_t factories : {1, 2, 4}) {
        AxisValue value;
        value.scalar = Json(factories);
        value.arch = Json::object().set("factories", factories);
        value.name = std::to_string(factories);
        axis.values.push_back(std::move(value));
    }
    return axis;
}

AxisValue
benchValue(const char *name, const char *bench, Json params,
           std::int64_t prefix)
{
    AxisValue value;
    value.name = name;
    value.bench = bench;
    value.params = std::move(params);
    if (prefix > 0)
        value.prefix = prefix;
    return value;
}

/**
 * The paper's seven-benchmark axis (bench_util.h paperWorkloads order);
 * long programs get the 60k steady-state prefix unless @p full.
 */
SweepAxis
paperBenchmarkAxis(bool full)
{
    const std::int64_t prefix = full ? 0 : 60'000;
    SweepAxis axis;
    axis.label = "benchmark";
    axis.values.push_back(benchValue("adder", "adder", Json(), 0));
    axis.values.push_back(benchValue("bv", "bv", Json(), 0));
    axis.values.push_back(benchValue("cat", "cat", Json(), 0));
    axis.values.push_back(benchValue("ghz", "ghz", Json(), 0));
    axis.values.push_back(
        benchValue("multiplier", "multiplier", Json(), prefix));
    axis.values.push_back(
        benchValue("square_root", "square_root", Json(), prefix));
    axis.values.push_back(benchValue(
        "SELECT", "select", Json::object().set("width", 11), prefix));
    return axis;
}

AxisValue
machineValue(SamKind sam, std::int32_t banks)
{
    AxisValue value;
    Json patch = Json::object();
    patch.set("sam", samKindName(sam));
    if (sam != SamKind::Conventional)
        patch.set("banks", banks);
    value.arch = std::move(patch);
    return value;
}

} // namespace

SweepSpec
fig13(bool full)
{
    SweepSpec spec;
    spec.name = "fig13";
    spec.nameTemplate = "{benchmark}/{machine}/f{factories}";
    spec.axes.push_back(factoriesAxis());
    spec.axes.push_back(paperBenchmarkAxis(full));

    // The Fig. 13 bar machines, left to right (bench_util.h).
    SweepAxis machines;
    machines.label = "machine";
    machines.values.push_back(machineValue(SamKind::Point, 1));
    machines.values.push_back(machineValue(SamKind::Point, 2));
    machines.values.push_back(machineValue(SamKind::Line, 1));
    machines.values.push_back(machineValue(SamKind::Line, 2));
    machines.values.push_back(machineValue(SamKind::Line, 4));
    machines.values.push_back(machineValue(SamKind::Conventional, 1));
    spec.axes.push_back(std::move(machines));
    return spec;
}

SweepSpec
fig14(bool full)
{
    SweepSpec spec;
    spec.name = "fig14";
    spec.nameTemplate = "{benchmark}/{machine}/f{factories}";
    spec.axes.push_back(factoriesAxis());
    spec.axes.push_back(paperBenchmarkAxis(full));

    struct Choice
    {
        const char *label;
        SamKind sam;
        std::int32_t banks;
    };
    constexpr Choice kChoices[] = {
        {"point#1", SamKind::Point, 1},
        {"point#2", SamKind::Point, 2},
        {"line#1", SamKind::Line, 1},
        {"line#4", SamKind::Line, 4},
    };

    SweepAxis machines;
    machines.label = "machine";
    AxisValue conventional = machineValue(SamKind::Conventional, 1);
    conventional.name = "conventional";
    machines.values.push_back(std::move(conventional));
    for (int step = 0; step <= 20; ++step) {
        const double f = 0.05 * step;
        for (const Choice &choice : kChoices) {
            AxisValue value = machineValue(choice.sam, choice.banks);
            value.arch.set("hybrid_fraction", f);
            value.name = std::string(choice.label) + "/h" +
                         TextTable::num(f, 2);
            machines.values.push_back(std::move(value));
        }
    }
    spec.axes.push_back(std::move(machines));
    return spec;
}

SweepSpec
fig15(bool full)
{
    SweepSpec spec;
    spec.name = "fig15";
    spec.nameTemplate = "{benchmark}/{machine}/f{factories}";
    spec.axes.push_back(factoriesAxis());

    // Each width's circuit is synthesized once (registry memoization)
    // on a steady-state unary-iteration prefix unless --full.
    SweepAxis widths;
    widths.label = "benchmark";
    for (const std::int32_t width : {21, 41, 61, 81, 101}) {
        const std::int64_t maxTerms =
            full ? 0
                 : std::min<std::int64_t>(selectLayout(width).numTerms,
                                          1200);
        AxisValue value;
        value.name = "SELECT" + std::to_string(width);
        value.bench = "select";
        value.params = Json::object()
                           .set("width", width)
                           .set("max_terms", maxTerms);
        widths.values.push_back(std::move(value));
    }
    spec.axes.push_back(std::move(widths));

    struct Config
    {
        const char *label;
        SamKind sam;
        std::int32_t banks;
        bool hybrid;
    };
    constexpr Config kConfigs[] = {
        {"point#1", SamKind::Point, 1, false},
        {"point#2", SamKind::Point, 2, false},
        {"line#1", SamKind::Line, 1, false},
        {"line#4", SamKind::Line, 4, false},
        {"hybrid point#1", SamKind::Point, 1, true},
        {"hybrid point#2", SamKind::Point, 2, true},
        {"hybrid line#1", SamKind::Line, 1, true},
        {"hybrid line#4", SamKind::Line, 4, true},
    };

    SweepAxis machines;
    machines.label = "machine";
    AxisValue conventional = machineValue(SamKind::Conventional, 1);
    conventional.name = "conventional";
    machines.values.push_back(std::move(conventional));
    for (const Config &config : kConfigs) {
        AxisValue value = machineValue(config.sam, config.banks);
        if (config.hybrid)
            // Pin the control+temporal registers into the
            // conventional region: resolved per width at expansion.
            value.arch.set("hybrid_fraction", "hot");
        value.name = config.label;
        machines.values.push_back(std::move(value));
    }
    spec.axes.push_back(std::move(machines));
    return spec;
}

SweepSpec
ablation(bool full)
{
    const std::int64_t prefix = full ? 0 : 60'000;
    SweepSpec spec;
    spec.name = "ablation";
    spec.nameTemplate = "{benchmark}/{variant}";

    SweepAxis works;
    works.label = "benchmark";
    works.values.push_back(
        benchValue("multiplier", "multiplier", Json(), prefix));
    works.values.push_back(benchValue(
        "SELECT", "select", Json::object().set("width", 11), prefix));
    works.values.push_back(benchValue("cat", "cat", Json(), 0));
    spec.axes.push_back(std::move(works));

    struct Variant
    {
        const char *label;
        bool useLdSt; ///< run the explicit-LD/ST translation
        Json patch;
    };
    const Variant kVariants[] = {
        {"baseline (all paper opts)", false, Json::object()},
        {"no locality-aware store", false,
         Json::object().set("locality_store", false)},
        {"no in-memory ops (LD/ST everywhere)", true,
         Json::object().set("in_memory_ops", false)},
        {"+ direct-surgery extension", false,
         Json::object().set("direct_surgery", true)},
        {"buffer cap 1", false, Json::object().set("buffer_cap", 1)},
        {"buffer cap 8", false, Json::object().set("buffer_cap", 8)},
        {"cold magic buffer", false,
         Json::object().set("warm_buffer", false)},
        {"2 banks", false, Json::object().set("banks", 2)},
        {"no row-parallel unitaries", false,
         Json::object().set("row_parallel_ops", false)},
        {"interleaved placement", false,
         Json::object().set("placement", "interleaved")},
        {"interleaved + direct surgery", false,
         Json::object()
             .set("placement", "interleaved")
             .set("direct_surgery", true)},
    };

    SweepAxis variants;
    variants.label = "variant";
    AxisValue conventional = machineValue(SamKind::Conventional, 1);
    conventional.name = "conventional";
    variants.values.push_back(std::move(conventional));
    for (const Variant &variant : kVariants) {
        for (const SamKind sam : {SamKind::Point, SamKind::Line}) {
            AxisValue value;
            value.arch = Json::object().set("sam", samKindName(sam));
            for (const auto &member : variant.patch.members())
                value.arch.set(member.first, member.second);
            if (variant.useLdSt)
                value.translate =
                    Json::object().set("in_memory_ops", false);
            ArchConfig cfg;
            applyArchPatch(cfg, value.arch);
            value.name = std::string(variant.label) + "/" + cfg.label();
            variants.values.push_back(std::move(value));
        }
    }
    spec.axes.push_back(std::move(variants));
    return spec;
}

SweepSpec
smoke()
{
    SweepSpec spec;
    spec.name = "smoke";
    spec.nameTemplate = "{benchmark}/{machine}/f{factories}";

    SweepAxis factories;
    factories.label = "factories";
    for (const std::int32_t n : {1, 2}) {
        AxisValue value;
        value.scalar = Json(n);
        value.arch = Json::object().set("factories", n);
        value.name = std::to_string(n);
        factories.values.push_back(std::move(value));
    }
    spec.axes.push_back(std::move(factories));

    // Miniature instances of three program families: seconds, not
    // minutes, so CI can shard/merge and diff the whole sweep.
    SweepAxis benchmarks;
    benchmarks.label = "benchmark";
    benchmarks.values.push_back(benchValue(
        "adder", "adder", Json::object().set("width", 16), 0));
    benchmarks.values.push_back(benchValue(
        "ghz", "ghz", Json::object().set("num_qubits", 48), 0));
    benchmarks.values.push_back(benchValue(
        "SELECT", "select", Json::object().set("width", 4), 0));
    spec.axes.push_back(std::move(benchmarks));

    SweepAxis machines;
    machines.label = "machine";
    machines.values.push_back(machineValue(SamKind::Point, 1));
    machines.values.push_back(machineValue(SamKind::Line, 2));
    machines.values.push_back(machineValue(SamKind::Conventional, 1));
    spec.axes.push_back(std::move(machines));
    return spec;
}

SweepSpec
byName(const std::string &name, bool full)
{
    if (name == "fig13")
        return fig13(full);
    if (name == "fig14")
        return fig14(full);
    if (name == "fig15")
        return fig15(full);
    if (name == "ablation")
        return ablation(full);
    if (name == "smoke")
        return smoke();
    throw ConfigError(
        "unknown spec \"" + name +
        "\" (fig13|fig14|fig15|ablation|smoke)");
}

} // namespace lsqca::api::specs

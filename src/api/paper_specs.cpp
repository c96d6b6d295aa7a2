#include "api/paper_specs.h"

#include <algorithm>
#include <map>
#include <vector>

#include "api/serialize.h"
#include "common/error.h"
#include "common/stats.h"
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
 * The paper's seven-benchmark axis, in the order of the figures' rows
 * (renderFigure walks it); long programs get the 60k steady-state
 * prefix unless @p full.
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

/** The Fig. 14 SAM designs, in the order of each f-step's columns. */
struct Fig14Choice
{
    const char *label;
    SamKind sam;
    std::int32_t banks;
};
constexpr Fig14Choice kFig14Choices[] = {
    {"point#1", SamKind::Point, 1},
    {"point#2", SamKind::Point, 2},
    {"line#1", SamKind::Line, 1},
    {"line#4", SamKind::Line, 4},
};

/** Fig. 14 sweeps the hybrid fraction f = 0.05 * step, step 0..20. */
constexpr int kFig14Steps = 20;

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

    // The Fig. 13 bar machines, left to right: renderFigure reads the
    // table columns in this order and takes the last as the baseline.
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

    // Conventional first: renderFigure divides the points that follow
    // it by its execution time.
    SweepAxis machines;
    machines.label = "machine";
    AxisValue conventional = machineValue(SamKind::Conventional, 1);
    conventional.name = "conventional";
    machines.values.push_back(std::move(conventional));
    for (int step = 0; step <= kFig14Steps; ++step) {
        const double f = 0.05 * step;
        for (const Fig14Choice &choice : kFig14Choices) {
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

    // Conventional first: renderFigure divides the points that follow
    // it by its execution time.
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

    // Conventional first, then (variant x point/line) pairs, the order
    // renderFigure reads the rows in.
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

namespace {

/** The metrics one entry of a BENCH document contributes to a table. */
struct EntryMetrics
{
    double cpi = 0.0;
    double execBeats = 0.0;
    double density = 0.0;
};

/**
 * The entries of a matched document in job order. The table walks
 * below consume them one per job, in the axis order of the specs above
 * (first axis outermost).
 */
class EntryCursor
{
  public:
    explicit EntryCursor(const std::vector<Json> &entries)
    {
        metrics_.reserve(entries.size());
        for (const Json &entry : entries) {
            const Json &m = entry.at("metrics");
            metrics_.push_back({m.at("cpi").asDouble(),
                                m.at("exec_beats").asDouble(),
                                m.at("density").asDouble()});
        }
    }

    const EntryMetrics &
    next()
    {
        LSQCA_ASSERT(next_ < metrics_.size(),
                     "table walk ran past the document's entries");
        return metrics_[next_++];
    }

  private:
    std::vector<EntryMetrics> metrics_;
    std::size_t next_ = 0;
};

void
appendTable(std::string &out, const TextTable &table,
            const std::string &title)
{
    out += table.render(title);
    out += '\n';
}

/** "1 <noun>y" or "N <noun>ies" for a value of the factories axis. */
std::string
factoryPhrase(const AxisValue &factories, const std::string &noun)
{
    return factories.name + " " + noun +
           (factories.name == "1" ? "y" : "ies");
}

std::string
renderFig13(const SweepSpec &spec, EntryCursor &cursor)
{
    std::string out;
    const std::size_t machines = spec.axes[2].values.size();
    for (const AxisValue &factories : spec.axes[0].values) {
        TextTable table({"benchmark", "point#1", "point#2", "line#1",
                         "line#2", "line#4", "conventional",
                         "overhead(line#1)", "overhead(point#1)"});
        for (const AxisValue &load : spec.axes[1].values) {
            std::vector<double> cpis;
            for (std::size_t m = 0; m < machines; ++m)
                cpis.push_back(cursor.next().cpi);
            std::vector<std::string> row{load.name};
            for (double cpi : cpis)
                row.push_back(TextTable::num(cpi, 2));
            const double conv = cpis.back();
            row.push_back(TextTable::num(cpis[2] / conv, 2));
            row.push_back(TextTable::num(cpis[0] / conv, 2));
            table.addRow(row);
        }
        appendTable(out, table,
                    "Fig. 13: CPI with " +
                        factoryPhrase(factories, "magic-state factor"));
    }
    return out;
}

std::string
renderFig14(const SweepSpec &spec, EntryCursor &cursor)
{
    std::vector<std::string> headers{"f"};
    for (const Fig14Choice &choice : kFig14Choices) {
        headers.push_back(std::string(choice.label) + " dens");
        headers.push_back(std::string(choice.label) + " ovh");
    }

    std::string out;
    for (const AxisValue &factories : spec.axes[0].values) {
        // Per design and f-step, accumulated for the GEOMEAN table.
        std::map<std::string, std::vector<std::vector<double>>> overs;
        std::map<std::string, std::vector<std::vector<double>>> dens;
        for (const Fig14Choice &choice : kFig14Choices) {
            overs[choice.label].resize(kFig14Steps + 1);
            dens[choice.label].resize(kFig14Steps + 1);
        }

        for (const AxisValue &load : spec.axes[1].values) {
            const double convBeats = cursor.next().execBeats;
            TextTable table(headers);
            for (int step = 0; step <= kFig14Steps; ++step) {
                std::vector<std::string> row{
                    TextTable::num(0.05 * step, 2)};
                for (const Fig14Choice &choice : kFig14Choices) {
                    const EntryMetrics &r = cursor.next();
                    const double overhead = r.execBeats / convBeats;
                    row.push_back(TextTable::num(r.density, 3));
                    row.push_back(TextTable::num(overhead, 3));
                    overs[choice.label][step].push_back(overhead);
                    dens[choice.label][step].push_back(r.density);
                }
                table.addRow(row);
            }
            appendTable(out, table,
                        "Fig. 14 (" + load.name + ", " + factories.name +
                            " factories): density vs execution-time "
                            "overhead");
        }

        TextTable geo(headers);
        for (int step = 0; step <= kFig14Steps; ++step) {
            std::vector<std::string> row{TextTable::num(0.05 * step, 2)};
            for (const Fig14Choice &choice : kFig14Choices) {
                row.push_back(
                    TextTable::num(geomean(dens[choice.label][step]), 3));
                row.push_back(
                    TextTable::num(geomean(overs[choice.label][step]), 3));
            }
            geo.addRow(row);
        }
        appendTable(out, geo,
                    "Fig. 14 (GEOMEAN over " +
                        std::to_string(spec.axes[1].values.size()) +
                        " benchmarks, " + factories.name + " factories)");
    }
    return out;
}

std::string
renderFig15(const SweepSpec &spec, EntryCursor &cursor)
{
    // The machine axis: conventional first, then the eight configs.
    const std::vector<AxisValue> &configs = spec.axes[2].values;
    std::string out;
    for (const AxisValue &factories : spec.axes[0].values) {
        TextTable table({"width", "data qubits", "config", "density",
                         "exec overhead"});
        for (const AxisValue &instance : spec.axes[1].values) {
            const auto width = static_cast<std::int32_t>(
                instance.params.at("width").asInt());
            const double convBeats = cursor.next().execBeats;
            for (std::size_t c = 1; c < configs.size(); ++c) {
                const EntryMetrics &r = cursor.next();
                table.addRow(
                    {std::to_string(width),
                     std::to_string(selectLayout(width).totalQubits),
                     configs[c].name, TextTable::num(r.density, 3),
                     TextTable::num(r.execBeats / convBeats, 3)});
            }
        }
        appendTable(out, table,
                    "Fig. 15: SELECT scaling with " +
                        factoryPhrase(factories, "factor"));
    }
    return out;
}

std::string
renderAblation(const SweepSpec &spec, EntryCursor &cursor)
{
    // Variant axis: "conventional", then (variant x point/line) pairs
    // named "<variant label>/<machine label>".
    const std::vector<AxisValue> &variants = spec.axes[1].values;
    const std::size_t numVariants = (variants.size() - 1) / 2;
    std::string out;
    for (const AxisValue &work : spec.axes[0].values) {
        const double conv = cursor.next().execBeats;
        TextTable table({"variant", "point#1 overhead",
                         "line#1 overhead"});
        for (std::size_t v = 0; v < numVariants; ++v) {
            // Machine labels contain no '/', so the variant label is
            // everything before the last separator.
            const std::string &name = variants[1 + 2 * v].name;
            std::vector<std::string> row{name.substr(0, name.rfind('/'))};
            for (int s = 0; s < 2; ++s)
                row.push_back(
                    TextTable::num(cursor.next().execBeats / conv, 3));
            table.addRow(row);
        }
        appendTable(out, table,
                    "Ablation (" + work.name +
                        ", factory 1, overhead vs conventional)");
    }
    return out;
}

} // namespace

std::string
renderFigure(const Json &benchDoc)
{
    LSQCA_REQUIRE(benchDoc.find("shard") == nullptr,
                  "render needs a whole sweep; merge the shard "
                  "documents first (`lsqca merge`)");
    const std::vector<Json> &entries = benchDoc.at("entries").items();

    using Renderer = std::string (*)(const SweepSpec &, EntryCursor &);
    const std::pair<const char *, Renderer> figures[] = {
        {"fig13", renderFig13},
        {"fig14", renderFig14},
        {"fig15", renderFig15},
        {"ablation", renderAblation},
    };
    const BenchmarkRegistry registry = BenchmarkRegistry::paper();
    for (const auto &[name, render] : figures) {
        const SweepSpec spec = byName(name);
        const std::vector<ExpandedJob> jobs = expandSpec(spec, registry);
        const bool matches =
            jobs.size() == entries.size() &&
            std::equal(jobs.begin(), jobs.end(), entries.begin(),
                       [](const ExpandedJob &job, const Json &entry) {
                           return job.name ==
                                  entry.at("name").asString();
                       });
        if (matches) {
            EntryCursor cursor(entries);
            return render(spec, cursor);
        }
    }
    throw ConfigError("the document's entry names are not "
                      "those of the fig13, fig14, fig15 or ablation "
                      "sweep, in order");
}

} // namespace lsqca::api::specs

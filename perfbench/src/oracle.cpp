#include "oracle.h"

#include <fstream>
#include <future>
#include <sstream>
#include <unordered_set>

#include "analysis/estimator.h"
#include "common/error.h"
#include "common/hash.h"
#include "sweep/thread_pool.h"

namespace perfbench {

namespace {

constexpr std::size_t kMaxProblems = 8;

void
note(std::vector<std::string> &problems, const std::string &text)
{
    if (problems.size() < kMaxProblems)
        problems.push_back(text);
}

} // namespace

std::string
entryDigest(const lsqca::Json &entry)
{
    const lsqca::Json &metrics = entry.at("metrics");
    std::string text;
    for (const char *key : {"cpi", "exec_beats", "memory_beats",
                            "magic_stall_beats", "density"}) {
        text += key;
        text += '=';
        text += metrics.at(key).dump(0);
        text += ';';
    }
    return lsqca::contentFingerprint(text);
}

LowerBounds
computeLowerBounds(const std::vector<lsqca::api::ExpandedJob> &jobs,
                   lsqca::api::BenchmarkRegistry &registry,
                   std::int32_t threads)
{
    std::vector<const lsqca::api::ExpandedJob *> whole;
    std::vector<const lsqca::Program *> programs;
    for (const lsqca::api::ExpandedJob &job : jobs) {
        if (job.options.maxInstructions != 0)
            continue;
        whole.push_back(&job);
        programs.push_back(
            &registry.program(job.bench, job.params, job.translate));
    }
    std::vector<std::int64_t> bounds(whole.size(), 0);
    {
        lsqca::ThreadPool pool(static_cast<std::size_t>(threads));
        std::vector<std::future<void>> done;
        for (std::size_t i = 0; i < whole.size(); ++i)
            done.push_back(pool.submit([&, i] {
                bounds[i] =
                    lsqca::estimateResources(*programs[i],
                                             whole[i]->options.arch)
                        .lowerBoundBeats;
            }));
        for (std::future<void> &f : done)
            f.get();
    }
    LowerBounds out;
    for (std::size_t i = 0; i < whole.size(); ++i)
        out.emplace(whole[i]->name, bounds[i]);
    return out;
}

Oracle
Oracle::load(const std::string &path)
{
    std::ifstream in(path);
    LSQCA_REQUIRE(in.good(), "cannot read oracle " + path);
    Oracle oracle;
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t tab = line.rfind('\t');
        LSQCA_REQUIRE(tab != std::string::npos,
                      "malformed oracle line in " + path);
        LSQCA_REQUIRE(oracle.digests_
                          .emplace(line.substr(0, tab), line.substr(tab + 1))
                          .second,
                      "duplicate job in oracle " + path);
    }
    return oracle;
}

void
Oracle::record(const std::string &path, const lsqca::Json &document)
{
    std::ostringstream out;
    for (const lsqca::Json &entry : document.at("entries").items())
        out << entry.at("name").asString() << '\t' << entryDigest(entry)
            << '\n';
    std::ofstream file(path);
    file << out.str();
    LSQCA_REQUIRE(file.good(), "cannot write oracle " + path);
}

std::int64_t
Oracle::check(const lsqca::Json &document, const LowerBounds &bounds,
              std::vector<std::string> &problems) const
{
    std::int64_t failed = 0;
    std::size_t matched = 0;
    std::unordered_set<std::string> seen;
    for (const lsqca::Json &entry : document.at("entries").items()) {
        const std::string &name = entry.at("name").asString();
        const auto expected = digests_.find(name);
        if (expected == digests_.end() || !seen.insert(name).second) {
            ++failed;
            note(problems, "unexpected or repeated job " + name);
            continue;
        }
        ++matched;
        bool ok = true;
        if (entryDigest(entry) != expected->second) {
            ok = false;
            note(problems, "digest mismatch on " + name);
        }
        const auto bound = bounds.find(name);
        if (bound != bounds.end()) {
            const std::int64_t beats =
                entry.at("metrics").at("exec_beats").asInt();
            if (beats < bound->second) {
                ok = false;
                note(problems, name + ": exec_beats " +
                                   std::to_string(beats) +
                                   " below lower bound " +
                                   std::to_string(bound->second));
            }
        }
        if (!ok)
            ++failed;
    }
    if (matched < digests_.size()) {
        failed += static_cast<std::int64_t>(digests_.size() - matched);
        note(problems, std::to_string(digests_.size() - matched) +
                           " oracle jobs missing from the output");
    }
    return failed;
}

} // namespace perfbench

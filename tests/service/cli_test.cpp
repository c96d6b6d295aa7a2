/**
 * @file
 * Black-box coverage of the CLI surface the orchestrator rides on:
 * worker flags (--timeout-seconds, --seed-check, --die-after), the
 * directory form of `merge` with duplicate-entry rejection, and the
 * submit/status/resume round trip — each against the real binary, the
 * way CI and other machines invoke it. Also `emit`, the single-job
 * text views (assembly, closed-form estimate), and `render`'s
 * argument checks.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/fs.h"
#include "common/json.h"
#include "common/subprocess.h"
#include "isa/assembler.h"
#include "service_test_util.h"

namespace lsqca::service {
namespace {

struct CliResult
{
    int exitCode = -1;
    bool signaled = false;
    std::string output; // stdout + stderr
};

/** Run the real lsqca binary and capture everything. */
CliResult
runCli(std::vector<std::string> args, const std::string &logPath)
{
    proc::Command command;
    command.argv = {test::kCliBin};
    command.argv.insert(command.argv.end(), args.begin(), args.end());
    command.logPath = logPath;
    const proc::Status status = proc::wait(proc::spawn(command));
    CliResult result;
    result.exitCode = status.exitCode;
    result.signaled = status.signaled;
    result.output = fsutil::exists(logPath)
                        ? fsutil::readFile(logPath)
                        : std::string();
    return result;
}

TEST(Cli, TimeoutSecondsAbortsWithCode124)
{
    const std::string dir = test::scratchDir("timeout");
    // The full fig13 sweep takes well over 10 ms of synthesis +
    // simulation, so the watchdog always wins this race.
    const CliResult result =
        runCli({"run", test::kFig13Spec, "--timeout-seconds", "0.01",
                "--out", dir + "/out"},
               dir + "/log");
    EXPECT_EQ(result.exitCode, 124);
    EXPECT_NE(result.output.find("exceeded --timeout-seconds"),
              std::string::npos)
        << result.output;
}

TEST(Cli, DieAfterExitsMidShardWithoutOutput)
{
    const std::string dir = test::scratchDir("dieafter");
    const CliResult result =
        runCli({"run", test::kSmokeSpec, "--shard", "0/2",
                "--die-after", "1", "--no-timing", "--out",
                dir + "/out"},
               dir + "/log");
    EXPECT_EQ(result.exitCode, 75);
    EXPECT_FALSE(fsutil::exists(
        dir + "/out/BENCH_smoke.shard0of2.json"));
}

TEST(Cli, SeedCheckMismatchFailsAndMalformedValueIsRejected)
{
    const std::string dir = test::scratchDir("seedcheck");
    const CliResult mismatch =
        runCli({"run", test::kSmokeSpec, "--seed-check",
                "0123456789abcdef", "--out", dir + "/out"},
               dir + "/log1");
    EXPECT_EQ(mismatch.exitCode, 1);
    EXPECT_NE(mismatch.output.find("--seed-check mismatch"),
              std::string::npos)
        << mismatch.output;

    const CliResult malformed =
        runCli({"run", test::kSmokeSpec, "--seed-check", "nope"},
               dir + "/log2");
    EXPECT_EQ(malformed.exitCode, 1);
    EXPECT_NE(malformed.output.find("16-hex-digit"),
              std::string::npos)
        << malformed.output;
}

TEST(Cli, MergeAcceptsADirectoryOfShards)
{
    const std::string dir = test::scratchDir("mergedir");
    for (const char *shard : {"0/2", "1/2"})
        ASSERT_EQ(runCli({"run", test::kSmokeSpec, "--shard", shard,
                          "--no-timing", "--out", dir + "/shards"},
                         dir + "/runlog")
                      .exitCode,
                  0);
    ASSERT_EQ(runCli({"run", test::kSmokeSpec, "--no-timing", "--out",
                      dir + "/direct"},
                     dir + "/runlog")
                  .exitCode,
              0);

    const CliResult merged =
        runCli({"merge", dir + "/shards", "--out",
                dir + "/merged.json"},
               dir + "/mergelog");
    EXPECT_EQ(merged.exitCode, 0);
    EXPECT_EQ(fsutil::readFile(dir + "/merged.json"),
              fsutil::readFile(dir + "/direct/BENCH_smoke.json"));
}

TEST(Cli, MergeRejectsDuplicateEntriesWithPositions)
{
    const std::string dir = test::scratchDir("mergedup");
    ASSERT_EQ(runCli({"run", test::kSmokeSpec, "--no-timing", "--out",
                      dir + "/out"},
                     dir + "/runlog")
                  .exitCode,
              0);
    const std::string doc = dir + "/out/BENCH_smoke.json";
    const CliResult result =
        runCli({"merge", doc, doc}, dir + "/mergelog");
    EXPECT_EQ(result.exitCode, 1);
    EXPECT_NE(result.output.find("duplicate entry \""),
              std::string::npos)
        << result.output;
    // The error points at both offending documents by path.
    EXPECT_NE(result.output.find(doc), std::string::npos);
}

TEST(Cli, MergeRejectsADirectoryWithoutBenchFiles)
{
    const std::string dir = test::scratchDir("mergeempty");
    fsutil::makeDirs(dir + "/empty");
    const CliResult result =
        runCli({"merge", dir + "/empty"}, dir + "/log");
    EXPECT_EQ(result.exitCode, 1);
    EXPECT_NE(result.output.find("no BENCH_*.json"),
              std::string::npos)
        << result.output;
}

TEST(Cli, SubmitStatusResumeRoundTrip)
{
    const std::string dir = test::scratchDir("campaign");
    ASSERT_EQ(runCli({"run", test::kSmokeSpec, "--no-timing", "--out",
                      dir + "/direct"},
                     dir + "/runlog")
                  .exitCode,
              0);

    // Interrupt mid-campaign (simulated orchestrator death killing a
    // worker mid-run), then resume to the byte-identical artifact.
    const CliResult interrupted = runCli(
        {"submit", test::kSmokeSpec, "--workers", "2", "--shards",
         "4", "--no-timing", "--state", dir + "/state",
         "--test-stop-after", "2"},
        dir + "/submitlog");
    EXPECT_EQ(interrupted.exitCode, 3);
    EXPECT_NE(interrupted.output.find("campaign interrupted"),
              std::string::npos)
        << interrupted.output;

    const CliResult status =
        runCli({"status", dir + "/state"}, dir + "/statuslog");
    EXPECT_EQ(status.exitCode, 0);
    EXPECT_NE(status.output.find("campaign smoke"), std::string::npos);
    EXPECT_NE(status.output.find("running"), std::string::npos);

    const CliResult resumed =
        runCli({"resume", dir + "/state", "--workers", "2"},
               dir + "/resumelog");
    EXPECT_EQ(resumed.exitCode, 0);
    EXPECT_NE(resumed.output.find("4/4 shards done"),
              std::string::npos)
        << resumed.output;
    EXPECT_EQ(fsutil::readFile(dir + "/state/BENCH_smoke.json"),
              fsutil::readFile(dir + "/direct/BENCH_smoke.json"));
}

TEST(Cli, SubmitRefusesARetiredSampledSpec)
{
    const std::string dir = test::scratchDir("sampledspec");
    // A spec written for the retired sampled estimator fails before
    // any campaign state exists; it is never silently run exact.
    const std::string spec = dir + "/sampled.json";
    fsutil::writeFileAtomic(spec, R"({
  "schema": "lsqca-spec-v1",
  "name": "sampled_cli",
  "estimator": {"mode": "sampled", "target_ci": 0.1},
  "axes": [
    {"axis": "benchmark", "values": [
      {"bench": "adder", "params": {"width": 8}}]},
    {"axis": "machine", "values": [
      {"arch": {"sam": "point", "banks": 1}}]}
  ]
})");
    const CliResult submitted =
        runCli({"submit", spec, "--workers", "1", "--no-timing",
                "--state", dir + "/state"},
               dir + "/submitlog");
    EXPECT_NE(submitted.exitCode, 0);
    EXPECT_NE(submitted.output.find("\"estimator\""), std::string::npos)
        << submitted.output;
    EXPECT_FALSE(fsutil::exists(dir + "/state/queue.json"));
}

TEST(Cli, RunRefusesTheRetiredForceExactFlag)
{
    const std::string dir = test::scratchDir("forceexact");
    const CliResult run =
        runCli({"run", test::kSmokeSpec, "--force-exact", "--no-timing",
                "--out", dir + "/out"},
               dir + "/log");
    EXPECT_EQ(run.exitCode, 1);
    EXPECT_NE(run.output.find("--force-exact"), std::string::npos)
        << run.output;
    EXPECT_FALSE(fsutil::exists(dir + "/out"));
}

TEST(Cli, SpecAndRunRefuseTheRetiredSampledBuiltin)
{
    const std::string dir = test::scratchDir("sampledbuiltin");
    const CliResult spec = runCli({"spec", "fig14_sampled"}, dir + "/log1");
    EXPECT_EQ(spec.exitCode, 1);
    EXPECT_NE(spec.output.find("fig14_sampled"), std::string::npos)
        << spec.output;
    const CliResult run =
        runCli({"run", "fig14_sampled", "--no-timing", "--out",
                dir + "/out"},
               dir + "/log2");
    EXPECT_EQ(run.exitCode, 1);
    EXPECT_NE(run.output.find("fig14_sampled"), std::string::npos)
        << run.output;
    EXPECT_FALSE(fsutil::exists(dir + "/out"));
}

TEST(Cli, ReportReconstructsAnInterruptedCampaignFromTheJournal)
{
    const std::string dir = test::scratchDir("report");
    // Interrupt mid-campaign, resume, then report: the full history —
    // both legs, every spawn — comes from events.jsonl alone.
    const CliResult interrupted = runCli(
        {"submit", test::kSmokeSpec, "--workers", "2", "--shards",
         "4", "--no-timing", "--state", dir + "/state",
         "--clock", "logical", "--test-stop-after", "2"},
        dir + "/submitlog");
    EXPECT_EQ(interrupted.exitCode, 3);
    // A journal only reopens under its original clock: resuming with
    // the default (monotonic) clock is refused...
    const CliResult wrongClock =
        runCli({"resume", dir + "/state", "--workers", "2"},
               dir + "/wrongclocklog");
    EXPECT_EQ(wrongClock.exitCode, 1);
    EXPECT_NE(wrongClock.output.find("clock"), std::string::npos)
        << wrongClock.output;
    // ...and the matching clock continues the same journal.
    ASSERT_EQ(runCli({"resume", dir + "/state", "--workers", "2",
                      "--clock", "logical"},
                     dir + "/resumelog")
                  .exitCode,
              0);

    const CliResult report =
        runCli({"report", dir + "/state"}, dir + "/reportlog");
    EXPECT_EQ(report.exitCode, 0);
    EXPECT_NE(report.output.find("campaign smoke"), std::string::npos)
        << report.output;
    EXPECT_NE(report.output.find("status: complete"),
              std::string::npos);
    EXPECT_NE(report.output.find("2 legs"), std::string::npos)
        << report.output;
    EXPECT_NE(report.output.find("wall-clock breakdown"),
              std::string::npos);
    EXPECT_NE(report.output.find("worker utilization"),
              std::string::npos);

    // --chrome-trace publishes a Perfetto-loadable document whose
    // spans all sit on real worker tracks with monotone durations.
    const std::string tracePath = dir + "/trace.json";
    const CliResult traced =
        runCli({"report", dir + "/state", "--chrome-trace",
                tracePath},
               dir + "/tracelog");
    EXPECT_EQ(traced.exitCode, 0);
    EXPECT_NE(traced.output.find("chrome trace:"), std::string::npos)
        << traced.output;
    const Json doc = Json::parse(fsutil::readFile(tracePath));
    int spans = 0;
    for (const Json &event : doc.at("traceEvents").items())
        if (event.at("ph").asString() == "X") {
            ++spans;
            EXPECT_GE(event.at("dur").asDouble(), 0.0);
            EXPECT_GT(event.at("tid").asInt(), 0);
        }
    EXPECT_GE(spans, 4); // at least one attempt per shard
}

TEST(Cli, ReportIsByteIdenticalAcrossLogicalClockReruns)
{
    const std::string dir = test::scratchDir("reportbytes");
    const auto campaign = [&](const std::string &state,
                              const std::string &log) {
        EXPECT_EQ(runCli({"submit", test::kSmokeSpec, "--workers",
                          "1", "--shards", "2", "--no-timing",
                          "--state", state, "--clock", "logical"},
                         log)
                      .exitCode,
                  0);
        return runCli({"report", state}, log + ".report").output;
    };
    const std::string first = campaign(dir + "/a", dir + "/log1");
    const std::string second = campaign(dir + "/b", dir + "/log2");
    EXPECT_EQ(first, second);
    // Logical clock reports in event units, not seconds.
    EXPECT_NE(first.find("span_ev"), std::string::npos) << first;
}

TEST(Cli, ReportExplainsAMissingJournal)
{
    const std::string dir = test::scratchDir("reportnojournal");
    ASSERT_EQ(runCli({"submit", test::kSmokeSpec, "--workers", "1",
                      "--shards", "2", "--no-timing", "--state",
                      dir + "/state", "--no-journal"},
                     dir + "/submitlog")
                  .exitCode,
              0);
    EXPECT_FALSE(fsutil::exists(dir + "/state/events.jsonl"));
    const CliResult report =
        runCli({"report", dir + "/state"}, dir + "/reportlog");
    EXPECT_EQ(report.exitCode, 1);
    EXPECT_NE(report.output.find("no campaign journal"),
              std::string::npos)
        << report.output;
}

TEST(Cli, StatusShowsAgeColumnAndStragglerWarning)
{
    const std::string dir = test::scratchDir("statusage");
    ASSERT_EQ(runCli({"submit", test::kSmokeSpec, "--workers", "2",
                      "--shards", "2", "--no-timing", "--state",
                      dir + "/state"},
                     dir + "/submitlog")
                  .exitCode,
              0);
    const CliResult status =
        runCli({"status", dir + "/state"}, dir + "/statuslog");
    EXPECT_EQ(status.exitCode, 0);
    EXPECT_NE(status.output.find("age_s"), std::string::npos)
        << status.output;

    // Splice a straggler-kill retry into the journal (the event the
    // orchestrator writes when it shoots a slow worker) and status
    // surfaces the explicit warning, pointing at `lsqca report`.
    const std::string journal = dir + "/state/events.jsonl";
    fsutil::writeFileAtomic(
        journal,
        fsutil::readFile(journal) +
            "{\"event\":\"retry\",\"seq\":999,\"t\":999,"
            "\"shard\":0,\"attempt\":1,\"cause\":\"straggler\"}\n");
    const CliResult warned =
        runCli({"status", dir + "/state"}, dir + "/warnlog");
    EXPECT_EQ(warned.exitCode, 0);
    EXPECT_NE(warned.output.find("warning: 1 straggler kill"),
              std::string::npos)
        << warned.output;
    EXPECT_NE(warned.output.find("lsqca report"), std::string::npos);
}

TEST(Cli, RunWritesAMetricsSnapshotOnRequest)
{
    const std::string dir = test::scratchDir("runmetrics");
    const CliResult result =
        runCli({"run", test::kSmokeSpec, "--threads", "2",
                "--no-timing", "--out", dir + "/out", "--metrics",
                dir + "/metrics.json"},
               dir + "/runlog");
    EXPECT_EQ(result.exitCode, 0);
    const Json snapshot =
        Json::parse(fsutil::readFile(dir + "/metrics.json"));
    EXPECT_GT(snapshot.at("sweep.jobs").asInt(), 0);
    EXPECT_GT(snapshot.at("sweep.job_wall_seconds").at("count")
                  .asInt(),
              0);
    EXPECT_GT(snapshot.at("pool.tasks").asInt(), 0);
    // The snapshot is an opt-in side channel: BENCH bytes match an
    // uninstrumented run exactly.
    const CliResult plain =
        runCli({"run", test::kSmokeSpec, "--threads", "2",
                "--no-timing", "--out", dir + "/plain"},
               dir + "/plainlog");
    EXPECT_EQ(plain.exitCode, 0);
    EXPECT_EQ(fsutil::readFile(dir + "/out/BENCH_smoke.json"),
              fsutil::readFile(dir + "/plain/BENCH_smoke.json"));
}

TEST(Cli, SubmitRejectsUnknownFlagsAndNonFileSpecs)
{
    const std::string dir = test::scratchDir("submitbad");
    EXPECT_EQ(runCli({"submit", test::kSmokeSpec, "--wrokers", "2"},
                     dir + "/log1")
                  .exitCode,
              1);
    // Builtin names are for `run`; workers must re-load a real file.
    const CliResult builtin =
        runCli({"submit", "smoke"}, dir + "/log2");
    EXPECT_EQ(builtin.exitCode, 1);
    EXPECT_NE(builtin.output.find("spec *file*"), std::string::npos)
        << builtin.output;
}

TEST(Cli, EmitAsmRoundTripsThroughTheAssembler)
{
    const std::string dir = test::scratchDir("emitasm");
    const CliResult result = runCli(
        {"emit", "asm", test::kSmokeSpec, "--job", "2"}, dir + "/log");
    ASSERT_EQ(result.exitCode, 0) << result.output;
    ASSERT_FALSE(result.output.empty());
    EXPECT_EQ(assemble(result.output).disassemble(), result.output);
}

TEST(Cli, EmitEstimateIsALowerBoundOnEverySimulatedJob)
{
    const std::string dir = test::scratchDir("emitestimate");
    ASSERT_EQ(runCli({"run", test::kSmokeSpec, "--no-timing", "--out",
                      dir + "/out"},
                     dir + "/runlog")
                  .exitCode,
              0);
    const Json doc = Json::load(dir + "/out/BENCH_smoke.json");
    const std::vector<Json> &entries = doc.at("entries").items();
    ASSERT_FALSE(entries.empty());
    const std::string label = "execution lower bound: ";
    for (std::size_t job = 0; job < entries.size(); ++job) {
        const CliResult result =
            runCli({"emit", "estimate", test::kSmokeSpec, "--job",
                    std::to_string(job)},
                   dir + "/log" + std::to_string(job));
        ASSERT_EQ(result.exitCode, 0) << result.output;
        const std::size_t at = result.output.find(label);
        ASSERT_NE(at, std::string::npos) << result.output;
        const std::int64_t bound =
            std::stoll(result.output.substr(at + label.size()));
        EXPECT_GT(bound, 0) << job;
        EXPECT_LE(bound,
                  entries[job].at("metrics").at("exec_beats").asInt())
            << entries[job].at("name").asString();
    }
}

TEST(Cli, EmitEstimateCoversOnlyTheJobsPrefix)
{
    // fig13 job 26 (multiplier on line#1) simulates a 60k-instruction
    // prefix of a ~1M-instruction program: the whole program's bound
    // would be ten times its simulated time.
    const std::string dir = test::scratchDir("emitprefix");
    ASSERT_EQ(runCli({"run", "fig13", "--no-timing", "--out", dir + "/out"},
                     dir + "/runlog")
                  .exitCode,
              0);
    const Json doc = Json::load(dir + "/out/BENCH_fig13.json");
    const Json &entry = doc.at("entries").items().at(26);
    const CliResult result = runCli(
        {"emit", "estimate", "fig13", "--job", "26"}, dir + "/log");
    ASSERT_EQ(result.exitCode, 0) << result.output;
    const std::string label = "execution lower bound: ";
    const std::size_t at = result.output.find(label);
    ASSERT_NE(at, std::string::npos) << result.output;
    const std::int64_t bound =
        std::stoll(result.output.substr(at + label.size()));
    EXPECT_GT(bound, 0);
    EXPECT_LE(bound, entry.at("metrics").at("exec_beats").asInt())
        << entry.at("name").asString();
}

TEST(Cli, ErrorsCarryExactlyOneLsqcaPrefix)
{
    const std::string dir = test::scratchDir("errorprefix");
    const CliResult result = runCli(
        {"emit", "asm", test::kSmokeSpec, "--job", "99"}, dir + "/log");
    EXPECT_EQ(result.exitCode, 1);
    // Nothing reaches stdout on an error, so the log is stderr alone.
    EXPECT_EQ(result.output.rfind("lsqca: config error: --job 99", 0), 0u)
        << result.output;
    EXPECT_EQ(result.output.find("lsqca: lsqca:"), std::string::npos)
        << result.output;
    // A user-facing error names no source file of the build.
    EXPECT_EQ(result.output.find("lsqca_cli.cpp"), std::string::npos)
        << result.output;
}

TEST(Cli, RenderRefusesAnUnknownNameAndAnyFlag)
{
    const std::string dir = test::scratchDir("renderargs");
    // Neither a table name nor a readable BENCH document.
    const CliResult unknown = runCli({"render", "fig09"}, dir + "/log1");
    EXPECT_EQ(unknown.exitCode, 1);
    EXPECT_NE(unknown.output.find("cannot open for reading: fig09"),
              std::string::npos)
        << unknown.output;

    for (const char *flag : {"--csv", "--full", "--smoke"}) {
        const CliResult flagged =
            runCli({"render", flag}, dir + "/log" + flag);
        EXPECT_EQ(flagged.exitCode, 1) << flag;
        EXPECT_NE(flagged.output.find("render takes exactly one"),
                  std::string::npos)
            << flagged.output;
        const CliResult trailing =
            runCli({"render", "fig08", flag}, dir + "/trail" + flag);
        EXPECT_EQ(trailing.exitCode, 1) << flag;
        EXPECT_NE(trailing.output.find("render takes exactly one"),
                  std::string::npos)
            << trailing.output;
    }
}

TEST(Cli, EmitRejectsAnUnknownFormatWithExitCode2)
{
    const std::string dir = test::scratchDir("emitformat");
    const CliResult result =
        runCli({"emit", "dot", test::kSmokeSpec}, dir + "/log");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("unknown emit format"),
              std::string::npos)
        << result.output;
}

} // namespace
} // namespace lsqca::service

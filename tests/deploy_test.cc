/**
 * @file
 * EdgeDeploy lifecycle tests: the EngineRepository's versioned
 * lineage (put / promote / quarantine / rollback), the DriftGate's
 * verdicts, and the RebuildWorker's bootstrap-then-gate pipeline —
 * including the untrusted-input contract (corrupt manifests and
 * tampered blobs come back as Status errors, never crashes).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "core/builder.hh"
#include "deploy/drift_gate.hh"
#include "deploy/rebuild_worker.hh"
#include "deploy/repository.hh"
#include "gpusim/device.hh"
#include "nn/model_zoo.hh"

namespace edgert {
namespace {

namespace fs = std::filesystem;

/** Swallow log output while exercising error paths. */
class QuietLogs
{
  public:
    QuietLogs() { setLogSink([](LogLevel, const std::string &) {}); }
    ~QuietLogs() { setLogSink({}); }
};

core::Engine
buildEngine(std::uint64_t seed, const std::string &model = "alexnet")
{
    nn::Network net = nn::buildZooModel(model);
    core::BuilderConfig cfg;
    cfg.build_id = seed;
    return core::Builder(gpusim::DeviceSpec::xavierNX(), cfg)
        .build(net);
}

/** A scratch repository rooted in a per-test temp directory. */
class DeployRepoTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        root_ = fs::temp_directory_path() /
                ("edgert_deploy_test." +
                 std::string(::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name()));
        fs::remove_all(root_);
    }
    void TearDown() override { fs::remove_all(root_); }

    fs::path root_;
};

TEST_F(DeployRepoTest, DisplayNameIsFilesystemSafe)
{
    deploy::ModelKey key{"res/net 18", "xavier nx",
                         nn::Precision::kFp16};
    std::string name = key.displayName();
    EXPECT_EQ(name.find('/'), std::string::npos) << name;
    EXPECT_EQ(name.find(' '), std::string::npos) << name;
}

TEST_F(DeployRepoTest, ManifestRoundTrips)
{
    deploy::Manifest m;
    m.key = {"alexnet", "xavier-nx", nn::Precision::kFp16};
    m.live_version = 2;
    deploy::ManifestEntry e1;
    e1.version = 1;
    e1.state = deploy::VersionState::kRetired;
    e1.build_id = 7;
    e1.fingerprint = 0xdeadbeefcafef00dULL;
    e1.plan_bytes = 12345;
    e1.created_by = "test";
    deploy::ManifestEntry e2 = e1;
    e2.version = 2;
    e2.state = deploy::VersionState::kPromoted;
    e2.parent_version = 1;
    e2.drift_pct = 0.25;
    e2.reason = "";
    m.entries = {e1, e2};

    auto r = deploy::Manifest::deserialize(m.serialize());
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r->key, m.key);
    EXPECT_EQ(r->live_version, 2);
    ASSERT_EQ(r->entries.size(), 2u);
    EXPECT_EQ(r->entries[0].fingerprint, e1.fingerprint);
    EXPECT_EQ(r->entries[1].parent_version, 1);
    EXPECT_DOUBLE_EQ(r->entries[1].drift_pct, 0.25);
    EXPECT_EQ(r->entries[1].state,
              deploy::VersionState::kPromoted);
}

TEST_F(DeployRepoTest, ManifestRoundTripsEveryPrecision)
{
    // Every lineage key the precision ladder can produce — fp16,
    // int8 and mixed — must survive the manifest wire format.
    for (nn::Precision p :
         {nn::Precision::kFp32, nn::Precision::kFp16,
          nn::Precision::kInt8, nn::Precision::kMixed}) {
        deploy::Manifest m;
        m.key = {"resnet-18", "xavier-nx", p};
        m.live_version = 1;
        deploy::ManifestEntry e;
        e.version = 1;
        e.state = deploy::VersionState::kPromoted;
        e.build_id = 3;
        m.entries = {e};
        auto r = deploy::Manifest::deserialize(m.serialize());
        ASSERT_TRUE(r.ok()) << r.status().toString();
        EXPECT_EQ(r->key, m.key);
        EXPECT_EQ(r->key.precision, p);
    }
}

TEST_F(DeployRepoTest, PutAssignsVersionsAndSharesBlobs)
{
    deploy::EngineRepository repo(root_.string());
    core::Engine e = buildEngine(1);
    deploy::BuildMeta meta;
    meta.created_by = "test";

    auto v1 = repo.put(e, meta);
    ASSERT_TRUE(v1.ok()) << v1.status().toString();
    EXPECT_EQ(*v1, 1);
    // Same engine again: a new version, but the content-addressed
    // blob is shared.
    auto v2 = repo.put(e, meta);
    ASSERT_TRUE(v2.ok());
    EXPECT_EQ(*v2, 2);

    deploy::ModelKey key{e.modelName(), e.deviceName(),
                         e.precision()};
    auto m = repo.manifest(key);
    ASSERT_TRUE(m.ok());
    ASSERT_EQ(m->entries.size(), 2u);
    EXPECT_EQ(m->entries[0].fingerprint, m->entries[1].fingerprint);
    EXPECT_EQ(m->live_version, -1) << "put never auto-promotes";

    std::size_t blobs = 0;
    for (const auto &de :
         fs::directory_iterator(root_ / "blobs"))
        blobs += de.is_regular_file();
    EXPECT_EQ(blobs, 1u);
}

TEST_F(DeployRepoTest, PromoteRetireRollbackLineage)
{
    QuietLogs quiet;
    deploy::EngineRepository repo(root_.string());
    deploy::BuildMeta meta;
    meta.created_by = "test";
    core::Engine e1 = buildEngine(1), e2 = buildEngine(2);
    deploy::ModelKey key{e1.modelName(), e1.deviceName(),
                         e1.precision()};

    ASSERT_TRUE(repo.put(e1, meta).ok());
    ASSERT_TRUE(repo.put(e2, meta).ok());
    EXPECT_FALSE(repo.loadLive(key).ok())
        << "nothing promoted yet";

    ASSERT_TRUE(repo.promote(key, 1).ok());
    ASSERT_TRUE(repo.promote(key, 2).ok());
    auto m = repo.manifest(key);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m->live_version, 2);
    EXPECT_EQ(m->find(1)->state, deploy::VersionState::kRetired);
    EXPECT_EQ(m->find(2)->parent_version, 1);

    // The live version cannot be quarantined in place.
    EXPECT_FALSE(repo.quarantine(key, 2, "test", 0.0).ok());

    // Rollback walks the parent lineage back to v1.
    ASSERT_TRUE(repo.rollback(key).ok());
    m = repo.manifest(key);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m->live_version, 1);
    EXPECT_EQ(m->find(2)->state,
              deploy::VersionState::kRolledBack);
    EXPECT_EQ(m->find(1)->state, deploy::VersionState::kPromoted);
    auto live = repo.loadLive(key);
    ASSERT_TRUE(live.ok());
    EXPECT_EQ(live->fingerprint(), e1.fingerprint());

    // v1 has no parent: a second rollback must fail cleanly.
    EXPECT_FALSE(repo.rollback(key).ok());
}

TEST_F(DeployRepoTest, LoadVersionDetectsBlobTampering)
{
    QuietLogs quiet;
    deploy::EngineRepository repo(root_.string());
    deploy::BuildMeta meta;
    meta.created_by = "test";
    core::Engine e = buildEngine(1);
    ASSERT_TRUE(repo.put(e, meta).ok());
    deploy::ModelKey key{e.modelName(), e.deviceName(),
                         e.precision()};
    ASSERT_TRUE(repo.loadVersion(key, 1).ok());

    // Flip one payload byte in the stored blob.
    std::string path = repo.blobPath(e.fingerprint());
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(20);
    char c;
    f.seekg(20);
    f.get(c);
    f.seekp(20);
    f.put(static_cast<char>(c ^ 0xff));
    f.close();

    auto r = repo.loadVersion(key, 1);
    EXPECT_FALSE(r.ok()) << "tampered blob was accepted";
}

TEST_F(DeployRepoTest, CorruptManifestIsAStatusNotACrash)
{
    QuietLogs quiet;
    deploy::EngineRepository repo(root_.string());
    deploy::BuildMeta meta;
    meta.created_by = "test";
    core::Engine e = buildEngine(1);
    ASSERT_TRUE(repo.put(e, meta).ok());
    deploy::ModelKey key{e.modelName(), e.deviceName(),
                         e.precision()};

    std::ofstream(repo.manifestPath(key), std::ios::binary)
        << "garbage";
    EXPECT_FALSE(repo.manifest(key).ok());
    EXPECT_FALSE(repo.loadLive(key).ok());
    EXPECT_FALSE(repo.promote(key, 1).ok());
    // put refuses to clobber a lineage it cannot read.
    EXPECT_FALSE(repo.put(e, meta).ok());
}

TEST(DriftGateTest, EqualFingerprintsAcceptWithoutCanary)
{
    core::Engine e = buildEngine(42);
    deploy::DriftGate gate;
    deploy::DriftVerdict v = gate.evaluate(e, e);
    EXPECT_TRUE(v.accepted);
    EXPECT_FALSE(v.canary_ran);
    EXPECT_EQ(v.disagreements, 0);
    EXPECT_DOUBLE_EQ(v.kernel_remap_pct, 0.0);
}

TEST(DriftGateTest, RebuildDriftLandsInPaperBandAndIsDeterministic)
{
    core::Engine a = buildEngine(1, "resnet-18");
    core::Engine b = buildEngine(2, "resnet-18");
    ASSERT_NE(a.fingerprint(), b.fingerprint());

    deploy::DriftGate gate;
    deploy::DriftVerdict v1 = gate.evaluate(a, b);
    EXPECT_TRUE(v1.canary_ran);
    EXPECT_GT(v1.canary_size, 0);
    // Finding 2: rebuild disagreement sits in 0.1-0.8%.
    EXPECT_GE(v1.disagreement_pct, 0.1);
    EXPECT_LE(v1.disagreement_pct, 0.8);
    // Finding 6: the kernel mapping changed too.
    EXPECT_GT(v1.kernel_remap_pct, 0.0);
    EXPECT_FALSE(v1.kernel_deltas.empty());

    deploy::DriftVerdict v2 = gate.evaluate(a, b);
    EXPECT_EQ(v1.toJson(), v2.toJson())
        << "same pair must yield byte-identical verdicts";
}

TEST(DriftGateTest, ThresholdSplitsPromoteFromQuarantine)
{
    core::Engine a = buildEngine(1, "resnet-18");
    core::Engine b = buildEngine(2, "resnet-18");

    deploy::DriftGateConfig strict;
    strict.max_disagreement_pct = 0.0;
    deploy::DriftVerdict rejected =
        deploy::DriftGate(strict).evaluate(a, b);
    EXPECT_FALSE(rejected.accepted);
    EXPECT_EQ(rejected.reason, "drift_exceeds_threshold");

    deploy::DriftGateConfig lax;
    lax.max_disagreement_pct = 100.0;
    EXPECT_TRUE(deploy::DriftGate(lax).evaluate(a, b).accepted);
}

TEST(DriftGateTest, IdentityMismatchesRejectWithoutCanary)
{
    core::Engine a = buildEngine(1, "alexnet");
    core::Engine b = buildEngine(1, "vgg-16");
    deploy::DriftVerdict v = deploy::DriftGate().evaluate(a, b);
    EXPECT_FALSE(v.accepted);
    EXPECT_EQ(v.reason, "model_mismatch");
    EXPECT_FALSE(v.canary_ran);
}

TEST(DriftGateTest, VerdictJsonEscapesControlCharacters)
{
    // Kernel and model names come from plan-file bytes, so a hostile
    // plan can carry any byte into the printed verdict.
    deploy::DriftVerdict v;
    v.reason = "drift_exceeds_threshold";
    v.detail = "model \"evil\"\tname";
    deploy::KernelDelta d;
    d.kernel = std::string("conv\n") + '\x01' + "\\gemm";
    d.incumbent_calls = 3;
    d.candidate_calls = 1;
    v.kernel_deltas.push_back(d);

    std::string json = v.toJson();
    std::string err;
    EXPECT_TRUE(jsonValid(json, &err)) << err << "\n" << json;
    EXPECT_NE(json.find("\"conv\\n\\u0001\\\\gemm\""),
              std::string::npos)
        << json;
}

TEST_F(DeployRepoTest, RebuildWorkerBootstrapsThenGates)
{
    QuietLogs quiet;
    deploy::EngineRepository repo(root_.string());
    deploy::DriftGateConfig gate_cfg;
    gate_cfg.max_disagreement_pct = 0.0; // reject any drift
    deploy::RebuildWorker worker(repo, gate_cfg);

    deploy::RebuildJob job;
    job.model = "resnet-18";
    job.device = gpusim::DeviceSpec::xavierNX();
    job.build_id = 1;

    // First rebuild of an empty key: bootstrap-promoted ungated.
    auto out = worker.run({job});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].status.ok()) << out[0].status.toString();
    EXPECT_FALSE(out[0].gated);
    EXPECT_TRUE(out[0].promoted);
    EXPECT_EQ(out[0].version, 1);

    // Second rebuild at a drifting seed: gated and quarantined.
    job.build_id = 2;
    out = worker.run({job});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].gated);
    EXPECT_TRUE(out[0].quarantined);
    EXPECT_FALSE(out[0].promoted);
    EXPECT_EQ(out[0].verdict.reason, "drift_exceeds_threshold");

    deploy::ModelKey key{"resnet-18", "xavier-nx",
                         nn::Precision::kFp16};
    auto m = repo.manifest(key);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m->live_version, 1) << "quarantine must not go live";
    EXPECT_EQ(m->find(2)->state,
              deploy::VersionState::kQuarantined);
    EXPECT_DOUBLE_EQ(m->find(2)->drift_pct,
                     out[0].verdict.disagreement_pct);

    // An identical rebuild of the live seed is accepted (equal
    // fingerprints short-circuit the canary).
    job.build_id = 1;
    out = worker.run({job});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].promoted);
}

} // namespace
} // namespace edgert

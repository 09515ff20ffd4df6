// Resume-equivalence harness: proves the crash-safety claim end to end.
//
// Three DNAS searches over the same seeded KWS search space:
//   A  uninterrupted reference run;
//   B  journaled run killed mid-epoch (simulated power loss via the
//      halt_after_steps hook — the journal on disk holds the last epoch
//      boundary, exactly as after a SIGKILL);
//   C  a fresh process resuming from B's journal.
// The harness asserts that C's final architecture decision, cost breakdown,
// train accuracy, and every serialized weight byte are identical to A's,
// then repeats the exercise for the plain Trainer, and finally shows the
// divergence sentinel riding through an injected NaN-gradient fault.
//
// Exits non-zero if any equivalence check fails. Emits a human-readable
// table followed by a machine-readable JSON block ("--- JSON ---").
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/dnas.hpp"
#include "core/supernet.hpp"
#include "datasets/kws.hpp"
#include "nn/checkpoint.hpp"
#include "reliability/fault_injector.hpp"

using namespace mn;

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("  %-58s %s\n", what, ok ? "MATCH" : "MISMATCH");
  if (!ok) ++g_failures;
}

std::string arch_string(const models::DsCnnConfig& cfg) {
  std::string s = "stem=" + std::to_string(cfg.stem_channels) + " blocks=[";
  for (size_t i = 0; i < cfg.blocks.size(); ++i) {
    if (i > 0) s += ',';
    s += std::to_string(cfg.blocks[i].channels);
  }
  return s + "]";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_args(argc, argv);
  bench::print_header("Resume equivalence: journaled crash-safe DNAS & training");

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "mn_bench_resume";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string dnas_journal = (dir / "dnas.journal").string();
  const std::string train_journal = (dir / "train.journal").string();

  data::KwsConfig kcfg;
  kcfg.num_keywords = opt.full ? 4 : 2;
  kcfg.num_unknown_words = 4;
  const data::Dataset train =
      data::make_kws_dataset(kcfg, opt.full ? 24 : 10, 33);

  core::DsCnnSearchSpace space;
  space.input = train.input_shape;
  space.num_classes = train.num_classes;
  space.stem_max = opt.full ? 24 : 16;
  space.stem_kh = 3;
  space.stem_kw = 3;
  space.blocks = {{16, 1, true}};
  space.width_fracs = {0.5, 1.0};
  models::BuildOptions bopt;
  bopt.seed = 9;

  core::DnasConfig dcfg;
  dcfg.epochs = opt.full ? 10 : 5;
  dcfg.warmup_epochs = 1;
  dcfg.batch_size = 16;
  dcfg.seed = opt.seed;
  dcfg.constraints.ops_budget = 150'000;
  dcfg.constraints.lambda_ops = 8.0;

  const int64_t steps_per_epoch =
      (train.size() + dcfg.batch_size - 1) / dcfg.batch_size;

  // --- A: uninterrupted reference search ------------------------------------
  bench::print_subheader("run A: uninterrupted DNAS reference");
  core::Supernet net_a = core::build_ds_cnn_supernet(space, bopt);
  const core::DnasResult a = core::run_dnas(net_a, train, dcfg);
  const std::vector<uint8_t> bytes_a = nn::save_checkpoint(net_a.graph);
  const models::DsCnnConfig arch_a = core::extract_ds_cnn(net_a, space);
  std::printf("  %d epochs, acc %.3f, E[ops] %.0f, %s\n", a.epochs_completed,
              a.final_train_accuracy, a.final_cost.expected_ops,
              arch_string(arch_a).c_str());

  // --- B: journaled search, killed mid-epoch --------------------------------
  bench::print_subheader("run B: journaled DNAS, killed mid-epoch");
  core::Supernet net_b = core::build_ds_cnn_supernet(space, bopt);
  core::DnasConfig bcfg = dcfg;
  bcfg.journal_path = dnas_journal;
  bcfg.halt_after_steps = (dcfg.epochs / 2) * steps_per_epoch + 1;
  const core::DnasResult b = core::run_dnas(net_b, train, bcfg);
  std::printf("  interrupted=%d after %" PRId64
              " steps (journal holds epoch %d boundary)\n",
              b.interrupted ? 1 : 0, bcfg.halt_after_steps, dcfg.epochs / 2);

  // --- C: fresh supernet resumed from B's journal ---------------------------
  bench::print_subheader("run C: resumed from the journal");
  core::Supernet net_c = core::build_ds_cnn_supernet(space, bopt);
  core::DnasConfig ccfg = dcfg;
  ccfg.resume_from = dnas_journal;
  const core::DnasResult c = core::run_dnas(net_c, train, ccfg);
  const models::DsCnnConfig arch_c = core::extract_ds_cnn(net_c, space);
  std::printf("  %d epochs total, acc %.3f, %s\n", c.epochs_completed,
              c.final_train_accuracy, arch_string(arch_c).c_str());

  bench::print_subheader("equivalence: run C vs run A");
  check(nn::save_checkpoint(net_c.graph) == bytes_a,
        "serialized weights + arch logits (bitwise)");
  check(arch_string(arch_c) == arch_string(arch_a),
        "extracted architecture decision");
  check(c.final_train_accuracy == a.final_train_accuracy,
        "final train accuracy (bitwise)");
  check(c.final_loss == a.final_loss, "final train loss (bitwise)");
  check(c.final_cost.expected_ops == a.final_cost.expected_ops &&
            c.final_cost.expected_flash_bytes ==
                a.final_cost.expected_flash_bytes &&
            c.final_cost.peak_working_memory ==
                a.final_cost.peak_working_memory,
        "cost breakdown: ops / flash / peak SRAM (bitwise)");

  // --- Plain Trainer: same exercise ----------------------------------------
  bench::print_subheader("plain Trainer: kill + resume");
  const models::DsCnnConfig tiny = bench::scale_ds_cnn(models::ds_cnn_s(), 8);
  nn::TrainConfig tcfg;
  tcfg.epochs = opt.full ? 8 : 4;
  tcfg.batch_size = 16;
  tcfg.lr_start = 0.05;
  tcfg.seed = opt.seed;

  models::BuildOptions topt;
  topt.seed = 5;
  topt.qat = false;
  models::DsCnnConfig tc = tiny;
  tc.input = train.input_shape;
  tc.num_classes = train.num_classes;

  nn::Graph g_ref = models::build_ds_cnn(tc, topt);
  const nn::TrainStats t_ref = nn::fit(g_ref, train, tcfg);

  nn::Graph g_crash = models::build_ds_cnn(tc, topt);
  nn::TrainConfig t_bcfg = tcfg;
  t_bcfg.journal_path = train_journal;
  t_bcfg.halt_after_steps = (tcfg.epochs / 2) * steps_per_epoch + 1;
  const nn::TrainStats t_b = nn::fit(g_crash, train, t_bcfg);

  nn::Graph g_res = models::build_ds_cnn(tc, topt);
  nn::TrainConfig t_ccfg = tcfg;
  t_ccfg.resume_from = train_journal;
  const nn::TrainStats t_c = nn::fit(g_res, train, t_ccfg);

  check(t_b.interrupted && !t_c.interrupted, "kill interrupted, resume completed");
  check(nn::save_checkpoint(g_res) == nn::save_checkpoint(g_ref),
        "trainer weights after resume (bitwise)");
  check(t_c.final_train_accuracy == t_ref.final_train_accuracy,
        "trainer final accuracy (bitwise)");

  // --- Divergence sentinel under an injected NaN gradient -------------------
  bench::print_subheader("divergence sentinel: injected NaN gradient");
  nn::Graph g_fault = models::build_ds_cnn(tc, topt);
  nn::TrainConfig fcfg = tcfg;
  fcfg.max_recoveries = 3;
  reliability::FaultInjector fi(opt.seed);
  bool fired = false;
  fcfg.grad_fault = [&](int epoch, int64_t, std::span<nn::Param* const> ps) {
    if (epoch == 1 && !fired) {
      fired = true;
      fi.inject_nonfinite(
          {ps[0]->grad.data(), static_cast<size_t>(ps[0]->grad.size())}, 0.5);
    }
  };
  const nn::TrainStats t_f = nn::fit(g_fault, train, fcfg);
  std::printf("  recoveries=%zu (kind=%s, lr_scale_after=%.2f), final acc %.3f\n",
              t_f.recoveries.size(),
              t_f.recoveries.empty()
                  ? "-"
                  : reliability::recovery_kind_name(t_f.recoveries[0].kind),
              t_f.recoveries.empty() ? 1.0 : t_f.recoveries[0].lr_scale_after,
              t_f.final_train_accuracy);
  check(t_f.recoveries.size() == 1, "exactly one rollback + LR backoff");
  check(t_f.epochs_completed == tcfg.epochs, "training completed after rollback");

  std::printf("\n--- JSON ---\n");
  std::printf("{\"bench\":\"resume_equivalence\",\"mode\":\"%s\",\n",
              opt.full ? "full" : "fast");
  std::printf(" \"dnas\":{\"epochs\":%d,\"acc_ref\":%.17g,\"acc_resumed\":%.17g,"
              "\"ops_ref\":%.17g,\"ops_resumed\":%.17g,"
              "\"arch_ref\":\"%s\",\"arch_resumed\":\"%s\"},\n",
              dcfg.epochs, a.final_train_accuracy, c.final_train_accuracy,
              a.final_cost.expected_ops, c.final_cost.expected_ops,
              arch_string(arch_a).c_str(), arch_string(arch_c).c_str());
  std::printf(" \"trainer\":{\"epochs\":%d,\"acc_ref\":%.17g,\"acc_resumed\":%.17g},\n",
              tcfg.epochs, t_ref.final_train_accuracy,
              t_c.final_train_accuracy);
  std::printf(" \"sentinel\":{\"recoveries\":%zu,\"final_acc\":%.17g},\n",
              t_f.recoveries.size(), t_f.final_train_accuracy);
  std::printf(" \"failures\":%d}\n", g_failures);

  std::filesystem::remove_all(dir);
  if (g_failures != 0) {
    std::printf("\nresume equivalence FAILED: %d mismatch(es)\n", g_failures);
    return 1;
  }
  std::printf("\nresume equivalence: all checks passed\n");
  return 0;
}

//===- tests/api_test.cpp - dr_api surface tests -------------------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "api/dr_api.h"
#include "support/OutStream.h"

#include <memory>

using namespace rio;
using namespace rio::test;

namespace {

Program counterLoop(int Iters) {
  return assembleOrDie(R"(
    main:
      mov ecx, )" + std::to_string(Iters) + R"(
      mov eax, 0
    loop:
      add eax, ecx
      dec ecx
      jnz loop
      mov ebx, eax
      mov eax, 1
      int 0x80
  )");
}

TEST(DrApi, FunctionClientReceivesPaperStyleHooks) {
  // The paper's Table 3 shape: free functions with void* context.
  static int Inits, Exits, Bbs, Traces;
  Inits = Exits = Bbs = Traces = 0;
  DrClientFunctions Hooks;
  Hooks.dynamorio_init = [] { ++Inits; };
  Hooks.dynamorio_exit = [] { ++Exits; };
  Hooks.dynamorio_basic_block = [](void *context, app_pc tag, InstrList *bb) {
    ASSERT_NE(context, nullptr);
    ASSERT_NE(bb, nullptr);
    EXPECT_NE(tag, 0u);
    ++Bbs;
  };
  Hooks.dynamorio_trace = [](void *, app_pc, InstrList *) { ++Traces; };

  Program P = counterLoop(20000);
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  std::unique_ptr<Client> C(makeFunctionClient(Hooks));
  Runtime RT(M, RuntimeConfig::full(), C.get());
  RunResult R = RT.run();
  ASSERT_EQ(R.Status, RunStatus::Exited);
  EXPECT_EQ(Inits, 1);
  EXPECT_EQ(Exits, 1);
  EXPECT_GE(Bbs, 3);
  EXPECT_GE(Traces, 1);
}

TEST(DrApi, EndTraceHookFunctionStyle) {
  static int Queries;
  Queries = 0;
  DrClientFunctions Hooks;
  Hooks.dynamorio_end_trace = [](void *, app_pc, app_pc) {
    ++Queries;
    return int(TRACE_END_NOW);
  };
  Program P = counterLoop(20000);
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  std::unique_ptr<Client> C(makeFunctionClient(Hooks));
  Runtime RT(M, RuntimeConfig::full(), C.get());
  ASSERT_EQ(RT.run().Status, RunStatus::Exited);
  EXPECT_GE(Queries, 1);
  EXPECT_EQ(RT.stats().get("traces_built"),
            RT.stats().get("trace_blocks_total")); // every trace is 1 block
}

TEST(DrApi, InstrListExpansionLevels) {
  // Lift a block at Level 0 and expand via the API.
  Program P = counterLoop(5);
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  Runtime RT(M, RuntimeConfig::linkDirect());
  void *context = &RT;

  class ExpandClient : public Client {
  public:
    unsigned BundleEntries = 0, ExpandedEntries = 0, Counted = 0;
    void onBasicBlock(Runtime &RT2, AppPc, InstrList &Block) override {
      if (Done)
        return;
      Done = true;
      BundleEntries = Block.size();
      Counted = instrlist_num_instrs(&Block);
      instrlist_expand(&RT2, &Block, 3);
      ExpandedEntries = Block.size();
      for (Instr &I : Block) {
        EXPECT_FALSE(I.isBundle());
        EXPECT_GE(int(I.level()), 3);
      }
    }
    bool Done = false;
  };
  (void)context;

  Machine M2;
  ASSERT_TRUE(loadProgram(M2, P));
  ExpandClient C;
  Runtime RT2(M2, RuntimeConfig::linkDirect(), &C);
  ASSERT_EQ(RT2.run().Status, RunStatus::Exited);
  EXPECT_LT(C.BundleEntries, C.ExpandedEntries);
  EXPECT_EQ(C.Counted, C.ExpandedEntries);
}

TEST(DrApi, CreationMacrosMatchFigure3) {
  Program P = counterLoop(5);
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  Runtime RT(M, RuntimeConfig::linkDirect());
  void *dc = &RT;

  Instr *Add = INSTR_CREATE_add(dc, opnd_create_reg(REG_EAX),
                                OPND_CREATE_INT8(1));
  ASSERT_NE(Add, nullptr);
  EXPECT_EQ(instr_get_opcode(Add), OP_add);
  EXPECT_EQ(instr_num_srcs(Add), 2u); // imm + dst-as-src (implicit filled)
  EXPECT_EQ(instr_num_dsts(Add), 1u);
  EXPECT_TRUE(instr_get_src(Add, 0).isImm());

  Instr *Push = INSTR_CREATE_push(dc, opnd_create_reg(REG_EBP));
  ASSERT_NE(Push, nullptr);
  // push has implicit esp source and stack-slot destination.
  EXPECT_EQ(instr_num_srcs(Push), 2u);
  EXPECT_EQ(instr_num_dsts(Push), 2u);
  EXPECT_TRUE(instr_get_dst(Push, 1).isMem());

  // Bad operand combinations return null rather than aborting.
  EXPECT_EQ(INSTR_CREATE_lea(dc, opnd_create_reg(REG_EAX),
                             opnd_create_reg(REG_EBX)),
            nullptr);
}

TEST(DrApi, TlsFieldAndSpillSlots) {
  Program P = counterLoop(5);
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  Runtime RT(M, RuntimeConfig::linkDirect());
  void *dc = &RT;
  dr_set_tls_field(dc, 0xDEADBEEF);
  EXPECT_EQ(dr_get_tls_field(dc), 0xDEADBEEFu);
  EXPECT_NE(dr_spill_slot_addr(dc, 0), dr_spill_slot_addr(dc, 1));
  EXPECT_GE(dr_spill_slot_addr(dc, 0), M.runtimeBase());
}

TEST(DrApi, SaveRestoreRegInsertionWorks) {
  // A client that round-trips ebx through a spill slot at block entry;
  // behaviour must be preserved.
  class SpillClient : public Client {
  public:
    void onBasicBlock(Runtime &RT, AppPc, InstrList &Block) override {
      void *dc = &RT;
      Instr *First = instrlist_first(&Block);
      dr_save_reg(dc, &Block, First, REG_EBX, 5);
      dr_restore_reg(dc, &Block, First, REG_EBX, 5);
    }
  };
  Program P = counterLoop(100);
  NativeRun Native = runNative(P);
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  SpillClient C;
  Runtime RT(M, RuntimeConfig::full(), &C);
  RunResult R = RT.run();
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  EXPECT_EQ(R.ExitCode, Native.ExitCode);
}

TEST(DrApi, CustomExitStubsRunWhenLinked) {
  // The paper Section 3.2 feature: attach a stub to the loop's backward
  // exit that counts executions, flowing through the stub even when
  // linked.
  class StubClient : public Client {
  public:
    uint32_t Slot = 0;
    void onBasicBlock(Runtime &RT, AppPc, InstrList &Block) override {
      void *dc = &RT;
      Slot = RT.slots().ScratchSlots + 8;
      // Find the block's conditional exit (the lifted list also carries an
      // appended fall-through jump after it).
      Instr *CondExit = nullptr;
      for (Instr &I : Block)
        if (!I.isBundle() && !I.isLabel() && I.isCondBranch())
          CondExit = &I;
      if (!CondExit)
        return;
      InstrList *Stub = dr_newlist(dc);
      // Flags-transparent counter bump in the stub.
      Instr *Seq[5] = {
          instr_create(dc, OP_mov,
                       {Operand::memAbs(dr_spill_slot_addr(dc, 6), 4),
                        Operand::reg(REG_ECX)}),
          instr_create(dc, OP_mov,
                       {Operand::reg(REG_ECX), Operand::memAbs(Slot, 4)}),
          instr_create(dc, OP_lea,
                       {Operand::reg(REG_ECX), Operand::mem(REG_ECX, 1, 4)}),
          instr_create(dc, OP_mov,
                       {Operand::memAbs(Slot, 4), Operand::reg(REG_ECX)}),
          instr_create(dc, OP_mov,
                       {Operand::reg(REG_ECX),
                        Operand::memAbs(dr_spill_slot_addr(dc, 6), 4)}),
      };
      for (Instr *I : Seq)
        instrlist_append(Stub, I);
      dr_set_exit_stub(dc, CondExit, Stub, /*always_through=*/true);
    }
  };

  Program P = counterLoop(500);
  NativeRun Native = runNative(P);
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  StubClient C;
  RuntimeConfig Config = RuntimeConfig::linkDirect(); // keep blocks stable
  Runtime RT(M, Config, &C);
  RunResult R = RT.run();
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  EXPECT_EQ(R.ExitCode, Native.ExitCode);
  uint32_t Count = 0;
  M.mem().read32(C.Slot, Count);
  // The loop's jnz exit is taken 499 times (the stub is on the taken edge)
  // and linked flow still passes through it.
  EXPECT_GE(Count, 499u);
  EXPECT_LE(Count, 510u);
}

TEST(DrApi, ProcessorFamilyQueries) {
  Program P = counterLoop(5);
  MachineConfig MC;
  MC.Cost = CostModel::pentiumIII();
  Machine M(MC);
  ASSERT_TRUE(loadProgram(M, P));
  Runtime RT(M, RuntimeConfig::linkDirect());
  EXPECT_EQ(proc_get_family(&RT), FAMILY_PENTIUM_III);

  Machine M2;
  ASSERT_TRUE(loadProgram(M2, P));
  Runtime RT2(M2, RuntimeConfig::linkDirect());
  EXPECT_EQ(proc_get_family(&RT2), FAMILY_PENTIUM_IV);
}

TEST(DrApi, DrPrintfGoesToClientStream) {
  Program P = counterLoop(5);
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  Runtime RT(M, RuntimeConfig::linkDirect());
  StringOutStream Captured;
  dr_set_client_out(&RT, &Captured);
  dr_printf("hello %d\n", 42);
  dr_set_client_out(&RT, nullptr);
  EXPECT_EQ(Captured.str(), "hello 42\n");
  // Crucially: nothing leaked into the *application's* output.
  EXPECT_TRUE(M.output().empty());
}

TEST(DrApi, GlobalAllocIsTransparent) {
  Program P = counterLoop(5);
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  Runtime RT(M, RuntimeConfig::linkDirect());
  void *Mem1 = dr_global_alloc(&RT, 128);
  void *Mem2 = dr_thread_alloc(&RT, 64);
  ASSERT_NE(Mem1, nullptr);
  ASSERT_NE(Mem2, nullptr);
  EXPECT_NE(Mem1, Mem2);
  std::memset(Mem1, 0xAB, 128); // must be writable host memory
}

} // namespace

namespace {

TEST(DrApi, FlagPreservationAroundFlagClobberingInstrumentation) {
  // A client that counts block executions with `add [slot], 1` — which
  // clobbers eflags — must bracket it with savef/restf to stay
  // transparent. Verify both that the bracketed version is correct and
  // that the counter works.
  class AddCounterClient : public Client {
  public:
    uint32_t Slot = 0;
    void onBasicBlock(Runtime &RT, AppPc, InstrList &Block) override {
      void *dc = &RT;
      Slot = RT.slots().ScratchSlots + 12;
      Operand Counter = Operand::memAbs(Slot, 4);
      Operand Flags = Operand::memAbs(RT.slots().FlagsSlot, 4);
      Instr *First = instrlist_first(&Block);
      Instr *Seq[3] = {
          INSTR_CREATE_savef(dc, Flags),
          INSTR_CREATE_add(dc, Counter, OPND_CREATE_INT8(1)),
          INSTR_CREATE_restf(dc, Flags),
      };
      for (Instr *I : Seq) {
        ASSERT_NE(I, nullptr);
        instrlist_preinsert(&Block, First, I);
      }
    }
  };

  // The program's control flow depends on flags held *across* block
  // boundaries (the jb's CF comes from the cmp in the previous block),
  // so unbracketed flag damage at block entry would change the output.
  Program P = assembleOrDie(R"(
    main:
      mov esi, 0
      mov ecx, 400
    loop:
      cmp ecx, 200
      jmp testblock        ; block break: flags must survive entry code
    testblock:
      jb lower
      add esi, 1
      jmp next
    lower:
      add esi, 1000
    next:
      dec ecx
      jnz loop
      mov ebx, esi
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )");
  NativeRun Native = runNative(P);
  ASSERT_EQ(Native.Status, RunStatus::Exited);

  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  AddCounterClient C;
  Runtime RT(M, RuntimeConfig::linkIndirect(), &C);
  RunResult R = RT.run();
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  EXPECT_EQ(M.output(), Native.Output)
      << "savef/restf must keep cross-block flags intact";
  uint32_t Count = 0;
  M.mem().read32(C.Slot, Count);
  EXPECT_GE(Count, 1200u); // 400 iterations x 3+ blocks
}

} // namespace

namespace {

/// A runtime that ran counterLoop under full() and was rewound for a
/// second run.
struct RanOnce {
  Program P = counterLoop(2000);
  NativeRun Native = runNative(P);
  Machine M;
  std::unique_ptr<Client> C;
  std::unique_ptr<Runtime> RT;

  explicit RanOnce(std::unique_ptr<Client> TheClient = nullptr)
      : C(std::move(TheClient)) {
    EXPECT_TRUE(loadProgram(M, P));
    RT = std::make_unique<Runtime>(M, RuntimeConfig::full(), C.get());
    EXPECT_EQ(RT->run().Status, RunStatus::Exited);
    M.resetForRun();
    RT->resetThreadForRun();
  }
};

TEST(DrApi, PublishFragmentInstallsTheNextVersion) {
  RanOnce R;
  void *Ctx = R.RT.get();
  const app_pc Tag = R.P.symbol("loop");
  ASSERT_EQ(dr_fragment_version(Ctx, Tag), 0);
  const uint64_t Epoch = dr_publication_epoch(Ctx);

  InstrList *Il = dr_decode_fragment(Ctx, Tag);
  ASSERT_NE(Il, nullptr);
  EXPECT_TRUE(dr_publish_fragment(Ctx, Tag, Il));
  EXPECT_EQ(dr_fragment_version(Ctx, Tag), 1);
  EXPECT_EQ(dr_publication_epoch(Ctx), Epoch + 1);
  EXPECT_FALSE(dr_publish_fragment(Ctx, 1, Il)); // no fragment at tag 1

  // The published version runs the program to the native answer.
  RunResult Run = R.RT->run();
  ASSERT_EQ(Run.Status, RunStatus::Exited) << Run.FaultReason;
  EXPECT_EQ(R.M.exitCode(), R.Native.ExitCode);
}

TEST(DrApi, FreezeTemplateIsIdempotentAndRefusesStatefulClients) {
  RanOnce R;
  EXPECT_FALSE(R.RT->isFrozenTemplate());
  EXPECT_TRUE(dr_freeze_template(R.RT.get()));
  EXPECT_TRUE(R.RT->isFrozenTemplate());
  EXPECT_TRUE(dr_freeze_template(R.RT.get()));
  void *Tenant = dr_fork_machine(R.RT.get());
  ASSERT_NE(Tenant, nullptr);
  EXPECT_EQ(static_cast<Runtime *>(Tenant)->run().Status, RunStatus::Exited);
  EXPECT_EQ(dr_fork_machine_of(Tenant)->exitCode(), R.Native.ExitCode);
  dr_fork_delete(Tenant);

  // A function client is not persist-safe: its hooks would not be replayed
  // in a tenant, so the runtime cannot become a template.
  RanOnce WithClient{
      std::unique_ptr<Client>(makeFunctionClient(DrClientFunctions()))};
  EXPECT_FALSE(dr_freeze_template(WithClient.RT.get()));
  EXPECT_FALSE(WithClient.RT->isFrozenTemplate());
}

TEST(DrApi, MetricsRegistryIsOnePerRuntimeAndTakesClientGauges) {
  RanOnce R;
  void *Ctx = R.RT.get();
  MetricsRegistry &Reg = dr_metrics(Ctx);
  EXPECT_EQ(&Reg, &dr_metrics(Ctx));
  MetricsRegistry::SourceId Src = Reg.addSource("client");
  Reg.addGauge(Src, "answer", [] { return uint64_t(42); });

  MetricSnapshot S = dr_metrics_snapshot(Ctx);
  ASSERT_NE(S.section("main"), nullptr);
  const MetricSection *Client = S.section("client");
  ASSERT_NE(Client, nullptr);
  const MetricValue *Answer = MetricSnapshot::find(*Client, "answer");
  ASSERT_NE(Answer, nullptr);
  EXPECT_EQ(Answer->Value, 42u);
  EXPECT_EQ(Answer->Kind, MetricKind::Gauge);
}

TEST(DrApi, OperandAccessorFamily) {
  opnd_t R = opnd_create_reg(REG_EDX);
  EXPECT_TRUE(opnd_is_reg(R));
  EXPECT_EQ(opnd_get_reg(R), REG_EDX);
  EXPECT_TRUE(opnd_uses_reg(R, REG_EDX));
  EXPECT_FALSE(opnd_uses_reg(R, REG_EAX));
  EXPECT_EQ(opnd_size_in_bytes(R), 4);

  opnd_t I = opnd_create_immed_int(-42, 4);
  EXPECT_TRUE(opnd_is_immed_int(I));
  EXPECT_EQ(opnd_get_immed_int(I), -42);

  opnd_t M = opnd_create_base_disp(REG_ESI, REG_ECX, 4, -8, 4);
  EXPECT_TRUE(opnd_is_memory_reference(M));
  EXPECT_EQ(opnd_get_base(M), REG_ESI);
  EXPECT_EQ(opnd_get_index(M), REG_ECX);
  EXPECT_EQ(opnd_get_scale(M), 4);
  EXPECT_EQ(opnd_get_disp(M), -8);
  EXPECT_TRUE(opnd_uses_reg(M, REG_ESI));
  EXPECT_TRUE(opnd_uses_reg(M, REG_ECX));
  EXPECT_FALSE(opnd_uses_reg(M, REG_EDX));

  opnd_t P = opnd_create_pc(0x1234);
  EXPECT_TRUE(opnd_is_pc(P));
  EXPECT_EQ(opnd_get_pc(P), 0x1234u);

  EXPECT_TRUE(opnd_same(M, opnd_create_base_disp(REG_ESI, REG_ECX, 4, -8, 4)));
  EXPECT_FALSE(opnd_same(M, opnd_create_base_disp(REG_ESI, REG_ECX, 4, 0, 4)));
  EXPECT_FALSE(opnd_same(R, I));
}

} // namespace

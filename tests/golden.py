"""sha256 pins of outputs that a refactor must leave byte-identical.

One table, name -> digest.  A name is ``<scenario>/<file>`` for an
output file of a ``clsnet`` scenario (tests/test_cli.py),
``timeline/<batch>`` for the items ``timeline_schedule`` emits on a drawn
plan batch (tests/test_routing.py), or ``verify/<cid>`` for a
criterion's report without its timings (tests/test_acceptance.py).
The pins were taken with every float written as JSON, ``repr`` or
``float.hex`` writes it, so a one-ulp move fails exactly the pins of the
outputs that carry it.  eigh's rounding is part of every pin, so another
LAPACK build may need new ones; a change that moves an output updates
its pin in the same commit and says why.
"""

import hashlib

SHA256 = {
    "optimize-evaluate-seven-creation/pulses.csv":
        "d2fa11e5fabe2ba951ee7ec8744fedfd8b607af13c7a8fead63843e2c53e3482",
    "optimize-evaluate-seven-creation/summary.json":
        "c1f5c029c0203a0b13bcf0199f13b1c57640c06fd6729b4be01194a8aa89f601",
    "optimize-evaluate-seven-transfer-J_inner/pulses.csv":
        "eebcfc2179bda55fe37cd207c3a00821bec62faaee35b7a02c2a346608859e47",
    "optimize-evaluate-seven-transfer-J_inner/summary.json":
        "01080eb2e4601204e8952439118a84badcce832f0fcaea80df1fd09483ca2dc3",
    "optimize-evaluate-seven-transfer/pulses.csv":
        "eebcfc2179bda55fe37cd207c3a00821bec62faaee35b7a02c2a346608859e47",
    "optimize-evaluate-seven-transfer/summary.json":
        "7f1392cdf00b15b5e5960650c815b4ac22c893876fd990fe22d363473172ace4",
    "optimize-evaluate-star-creation/pulses.csv":
        "2e339c023ed62e050568cf6450e18eb7d56e3f7570874b4de0e8b0acae311226",
    "optimize-evaluate-star-creation/summary.json":
        "e5240548fa8eb29b614aac0150e43f6489febb01a0f1c9256909f97fe30d4c78",
    "optimize-evaluate-star-transfer-J0.25/pulses.csv":
        "3806d52c75947b5e1bd6f2c97678fe90fc9cd135db29742587fbf3d90613f435",
    "optimize-evaluate-star-transfer-J0.25/summary.json":
        "491de133ad8643019f69b351f42a57f6011792cbf615e69faf6a3f72bec862ab",
    "optimize-evaluate-star-transfer-J0.5/pulses.csv":
        "7e4388be932ec432fba573b3cca9944b5dd68b1bc7592e6558c4b298aabfac7f",
    "optimize-evaluate-star-transfer-J0.5/summary.json":
        "32c90dd0271e31997a1aeeca4551b1a2fea08c35f99d7c502ff3036b713b9eff",
    "optimize-evaluate-star-transfer/pulses.csv":
        "3806d52c75947b5e1bd6f2c97678fe90fc9cd135db29742587fbf3d90613f435",
    "optimize-evaluate-star-transfer/summary.json":
        "491de133ad8643019f69b351f42a57f6011792cbf615e69faf6a3f72bec862ab",
    "optimize-refine-star-creation/pulses.csv":
        "1dc5baf49db0d52cc7d19db858ba72d54e91d93f7b8e011c2e7e4de6f78551bd",
    "optimize-refine-star-creation/summary.json":
        "d6106508f0257f07e2a64b323bc4feaddd1a158223d81440949d49a770f34659",
    "optimize-search-star-transfer/pulses.csv":
        "a0cc3587531697cb00d0b83582038c33de490bad6f75539159beff2548519e6f",
    "optimize-search-star-transfer/summary.json":
        "a0459217b23d106d14eec34e54286effecc965faab4cd79b102ebd202ff8c4a3",
    "simulate-seven-hold-J_inner/summary.json":
        "f22a19b32a5323c75a29833687a3c7bfb40cbeaeefaa99898e4a7cd8c0ed86aa",
    "simulate-seven-hold-J_inner/trajectory.csv":
        "ce7f1c5b80d3456464e99f6895c3ed4134d6ff50e64f123f498199559d58cd9f",
    "simulate-seven-hold-couplings/summary.json":
        "b220b84d28674c10f153d9e34fb379789e82d1d630d747124f59014d540ae11d",
    "simulate-seven-hold-couplings/trajectory.csv":
        "ce7f1c5b80d3456464e99f6895c3ed4134d6ff50e64f123f498199559d58cd9f",
    "simulate-seven-hold/summary.json":
        "5be8d5d1584ca8b3cc0d2a0b5b1414095e0c0c0acf99147fc022e0368ad03026",
    "simulate-seven-hold/trajectory.csv":
        "2635630107419ae5a8abd974414d7a8808637749ba8ca2590e725179c48efc78",
    "simulate-seven-hopping-flip-transfer/summary.json":
        "76d2a05b702a079d8db689bbe1ea0ef01c9254258280cd7676902ce6b60ec186",
    "simulate-seven-hopping-flip-transfer/trajectory.csv":
        "5c831fb24c09898dd2f1bb298f373da8c87a6e06eb83e3b9aa799779b3047149",
    "simulate-seven-optimized-seven-creation/summary.json":
        "1dce1a06f4a73f4ab9e7bb95e16c111ce5722b7136f99d47b51766c863d59284",
    "simulate-seven-optimized-seven-creation/trajectory.csv":
        "0a93d6c9b7a3c82fc7e89c0ceada9fece23fc5bbf2d805e2b2ddc8ca292152ae",
    "simulate-seven-optimized-seven-transfer/summary.json":
        "ad23c7cbb9ebaef11521f25657b189a65a9c9fc93ff107fbce5e88bcd7a7780d",
    "simulate-seven-optimized-seven-transfer/trajectory.csv":
        "2bc1de519f0a8dfcab92e6b5e3716be6c8e2f4fe62e4dd182dd5e33552681c0d",
    "simulate-seven-phase-flip-transfer/summary.json":
        "910d66a2b266b705a5fcf5c3aa2986421c1b7f5906341e4f77853e3dca0461fc",
    "simulate-seven-phase-flip-transfer/trajectory.csv":
        "c78dfeacf5b10cd7892c090ad6de147706798fb937b65c15addc6f55752a193e",
    "simulate-star-generation-J_prime/summary.json":
        "ff6c1f82622950a5b92ecc78a951b174708856e4ce23e73c4c2bb8815c898d9e",
    "simulate-star-generation-J_prime/trajectory.csv":
        "312edb86195739b7178f1185d9df244dabbd12820e365a9cd4f2f87731f5ea7d",
    "simulate-star-generation/summary.json":
        "ce69c41531e59d56c95d520f43c4bbe8e2e7ce34f18d30e3b0769c1b62cfacf1",
    "simulate-star-generation/trajectory.csv":
        "21731f86d0928fe4eefdb091f104d540d6d3a3b01b1742e119f896d9554911c3",
    "simulate-star-hold-T0/summary.json":
        "85bccf5d1e93d97c09a2a58350d7b463622558bcf43b15c829755bbe92644286",
    "simulate-star-hold-T0/trajectory.csv":
        "22780fa04c3dbeaea8e413f2109b3ceae96a938b7097b97a62359c7e0d28c894",
    "simulate-star-hold-couplings/summary.json":
        "2850340ebdd14bf2903db0ca52b1ddfb87d99584586483af806d6fd77c52dcd0",
    "simulate-star-hold-couplings/trajectory.csv":
        "6399f473222e3f15faac0ec5f2060112302b11cfe9cfcb635f0fdbdde653006d",
    "simulate-star-hopping-flip-transfer/summary.json":
        "6025dd65c63943003820825afc91f3070e0e1555d0e7d88a320bc0c609c9ab3d",
    "simulate-star-hopping-flip-transfer/trajectory.csv":
        "9701073ffaedad1e6c433978a8c9cba5552fac143106596f6e561be59fa9eb89",
    "simulate-star-optimized-star-creation/summary.json":
        "f682f36963a512849220fbd111778b3c1181dab433e0cfd4bea293eb36d4a328",
    "simulate-star-optimized-star-creation/trajectory.csv":
        "2a5466bcb03f778229fb5f0d81bbef4518d0bd0e11f20a9ae148f19acfc5007b",
    "simulate-star-optimized-star-transfer-J0.25/summary.json":
        "3678019448e3470f6d707a18ef329f9e13aebd9d52eeacc0055f98bee5207376",
    "simulate-star-optimized-star-transfer-J0.25/trajectory.csv":
        "b5317c364806ec62c6750595f18714de144bf701fcb14cd077cbe5ab3955fdc1",
    "simulate-star-optimized-star-transfer-J0.5/summary.json":
        "7fab17c7bc23e6c9c0847704ef172796e30d8c28b8c3787c714bbded5f10251f",
    "simulate-star-optimized-star-transfer-J0.5/trajectory.csv":
        "1063b6b18614123be85fe4a54757c5233ec0a8d0e105e1798e99b71dfd08b956",
    "simulate-star-phase-flip-transfer/summary.json":
        "4f5ac4c7b5eb648374991766c4dc2a3186ceb933641784be5271c81091970de3",
    "simulate-star-phase-flip-transfer/trajectory.csv":
        "ad44df062ca14ce41bf170e8fe56d7d90d6c25627aa30d9696aeaa6ab9547625",
    "simulate-star-piecewise-transfer/summary.json":
        "72a0b751fdf028fba65f64338a7e1b38c7da45e672f1ce19f288b48576a6b1d8",
    "simulate-star-piecewise-transfer/trajectory.csv":
        "e99782cb3ff9de4074931438d170aabae59e0a5a43ff72dfc80b4c47ea47f1a9",
    "simulate-star-reverse-generation/summary.json":
        "5824c072081e724a24c7f22228ac28afdecff24ff29c6ebac2ba975fb2ec0587",
    "simulate-star-reverse-generation/trajectory.csv":
        "fe53c34888cb6ae2d59beb743b019430e505eb9e89e9c44ad0adc225dfa50703",
    "spectrum-dll-2/summary.json":
        "a20f8aaad2477836f669a5eccf246bcc1abef86a459011d91c82d3c271b9b3e4",
    "spectrum-dll-4/summary.json":
        "49923bf7d1fc65d4896184e5e0194de9a5d45d871c668f77dfab46d0aa05fcdf",
    "spectrum-dll-5/summary.json":
        "d620e360e066fa12865b3b86c808d45f77e374ea8d152460fae8cf487203b64e",
    "spectrum-seven-J_inner/summary.json":
        "8865057b70c9e87502d931d3492540507c960df68fa9efa87d82006419ac8fb1",
    "spectrum-seven-couplings/summary.json":
        "4b312b404b42a45ca50c769766549a7e1a0dea807107282322a79624d7aaa801",
    "spectrum-seven/summary.json":
        "0ae6ef2c13315c0ee5ba19a8da835ec89c11b312e0c0773093c150ad7333eb91",
    "spectrum-star-couplings/summary.json":
        "5afd5559035977f8691cc9cf0d2a6ce745963ee0f876d75e0799abc9796a4a3f",
    "spectrum-star/summary.json":
        "276c9290487848176d2a06b120fd23029d44e6af403ed03fb1305f74d86d3c7f",
    "timeline/4x4-seed30-mixed-base":
        "df1d185a46994d0b0e831a3f2bd4111ea74a198ba5b575f27f5d849a188f5986",
    "timeline/6x6-seed16":
        "aa6eaf72da30edc78f1fdc8c9203076427390b78a9d16c3ccb63ffe17f32445d",
    "timeline/6x6-seed17":
        "c8b11163c87104b846ce253c361168f9f5e785731b3efad2e5a81d9807a3b698",
    "timeline/6x6-seed18-both-variants":
        "aa9cb44fe444d498fc908c622fc97d28fa699e00c238cc883babb2dd32443cda",
    "verify/C1":
        "109886f1286eb052f72d7ac95140cc2cdb5dc607cd22efe388dddfff3e04c013",
    "verify/C10":
        "2d0cfc7da44deea59c9a1ab2a89d9b7f797b052e913353894069fd3dbce00f39",
    "verify/C11":
        "8dd49095d487a5f390a2fc154efecb0f054cae3292a567e787e45a4a33635017",
    "verify/C12":
        "6ed82cb784032f86f6308719029756b8ef777ef24a286694d37677fba951267d",
    "verify/C13":
        "51b9037097400a4f21e742c58de5552dddbbba8ae3e509a3caeaf944ab20e507",
    "verify/C2":
        "2ef8dfcfe0fd0c0fe658cbc25c006a58ced8cbe50d8dde8065124ec9e9fd59f9",
    "verify/C3":
        "9f044e61d32e9910868870a57656f0982dac9dd4a639da458498d6da5f02c646",
    "verify/C4":
        "ad8ee0bb934f79bc2735d6d329ee8cb910d710311907c43615bcdba77aa8d4d9",
    "verify/C5":
        "4acdbb41a99a646a34ad4b16f4a76daa52714d0db94cd160bce714b1cc99d056",
    "verify/C6":
        "4e856f703fb87307421cfcad428d7e2aedea7de16c9b5f53160f5ec24c9b1287",
    "verify/C7":
        "21d0a39cfed734dcdec00062d5850b436b658c017c694fb8949e888d0e58da97",
    "verify/C8":
        "0c49405da5716ae60b567dded59bf02a9d0a5d3939c6309b7b54e30f6c25b96a",
    "verify/C9":
        "391a9759228374f945588f24a007ccdb630edc04554f16a52e7c97f65e300ca3",
}


def assert_pinned(name, data):
    got = hashlib.sha256(data).hexdigest()
    assert got == SHA256.get(name), f"{name}: sha256 {got}"


def assert_outputs_pinned(scenario, out_dir):
    """Every file a scenario wrote to ``out_dir`` holds its pin, and
    every pin of the scenario names a written file."""
    written = {f"{scenario}/{p.name}": p for p in out_dir.iterdir()}
    assert sorted(written) == sorted(n for n in SHA256
                                     if n.startswith(f"{scenario}/"))
    for name, path in sorted(written.items()):
        assert_pinned(name, path.read_bytes())

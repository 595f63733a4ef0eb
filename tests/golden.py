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
        "1de090aac64c6f1a881daa4d3f2b641ea42dfa9d3cbabef3e1a3c19bb0083e4c",
    "optimize-evaluate-seven-transfer-J_inner/pulses.csv":
        "eebcfc2179bda55fe37cd207c3a00821bec62faaee35b7a02c2a346608859e47",
    "optimize-evaluate-seven-transfer-J_inner/summary.json":
        "dfa771f4283b85fad157589dd073f8fffea3fefcb4f85b70b145b2fbcb9a6bd7",
    "optimize-evaluate-seven-transfer/pulses.csv":
        "eebcfc2179bda55fe37cd207c3a00821bec62faaee35b7a02c2a346608859e47",
    "optimize-evaluate-seven-transfer/summary.json":
        "763531e194dbad920274e09c99c99555b2525e03a7d9222c1318641406e4e81a",
    "optimize-evaluate-star-creation/pulses.csv":
        "2e339c023ed62e050568cf6450e18eb7d56e3f7570874b4de0e8b0acae311226",
    "optimize-evaluate-star-creation/summary.json":
        "fdcd7180932c598b8e5661ef429cf6ebe5a3b57d374d6c6f5c9c45962f7aaea9",
    "optimize-evaluate-star-transfer-J0.25/pulses.csv":
        "3806d52c75947b5e1bd6f2c97678fe90fc9cd135db29742587fbf3d90613f435",
    "optimize-evaluate-star-transfer-J0.25/summary.json":
        "e3ce26636830a13905be23ba02faf316cd4e1d8bc6d8e986d8bc1f7fb16d3e4d",
    "optimize-evaluate-star-transfer-J0.5/pulses.csv":
        "7e4388be932ec432fba573b3cca9944b5dd68b1bc7592e6558c4b298aabfac7f",
    "optimize-evaluate-star-transfer-J0.5/summary.json":
        "041725de99b4b4527286a821291706c2c06c548b86ae4f5a6b6e20d888e3f705",
    "optimize-evaluate-star-transfer/pulses.csv":
        "3806d52c75947b5e1bd6f2c97678fe90fc9cd135db29742587fbf3d90613f435",
    "optimize-evaluate-star-transfer/summary.json":
        "e3ce26636830a13905be23ba02faf316cd4e1d8bc6d8e986d8bc1f7fb16d3e4d",
    "optimize-refine-star-creation/pulses.csv":
        "1dc5baf49db0d52cc7d19db858ba72d54e91d93f7b8e011c2e7e4de6f78551bd",
    "optimize-refine-star-creation/summary.json":
        "571ef5a90c4ba833c84cab43d7df9b029e64b0931f7e81adfafbb12ff726ed32",
    "optimize-search-star-transfer/pulses.csv":
        "a0cc3587531697cb00d0b83582038c33de490bad6f75539159beff2548519e6f",
    "optimize-search-star-transfer/summary.json":
        "78fddc1b6a949d18036ab7c02f6153aed5f53335c5ad4bd13c815353ded23ca1",
    "simulate-seven-hold-J_inner/summary.json":
        "177fc4b8b4ac64cf119113f5e9738e22eee891a3b014cd7a2b31791ada777f7f",
    "simulate-seven-hold-J_inner/trajectory.csv":
        "ce7f1c5b80d3456464e99f6895c3ed4134d6ff50e64f123f498199559d58cd9f",
    "simulate-seven-hold-couplings/summary.json":
        "43c4c430a9ea6d5c25e27312e9c6da210f8e681bf5f5b1a52df7dd6716a419d8",
    "simulate-seven-hold-couplings/trajectory.csv":
        "ce7f1c5b80d3456464e99f6895c3ed4134d6ff50e64f123f498199559d58cd9f",
    "simulate-seven-hold/summary.json":
        "51ddb23880e42e5833cd3fc02844b4927f7c55bd0224808aab52123491cb56e2",
    "simulate-seven-hold/trajectory.csv":
        "2635630107419ae5a8abd974414d7a8808637749ba8ca2590e725179c48efc78",
    "simulate-seven-hopping-flip-transfer/summary.json":
        "a364fbfa97ba9860b6c5d8e278723479b0011a246f506166ece9e952b70de168",
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
        "8b33301848b15e1e71f2845ed1607c203609a3c47f9cb6046eddf66dc634e50d",
    "simulate-seven-phase-flip-transfer/trajectory.csv":
        "c78dfeacf5b10cd7892c090ad6de147706798fb937b65c15addc6f55752a193e",
    "simulate-star-generation-J_prime/summary.json":
        "dfc8d7f62a37bbb517c1bad15508afcdd82e4b594f672909230e25ea27b1b723",
    "simulate-star-generation-J_prime/trajectory.csv":
        "312edb86195739b7178f1185d9df244dabbd12820e365a9cd4f2f87731f5ea7d",
    "simulate-star-generation/summary.json":
        "cb30ded27da6836a2916bfd34365a493ce0c61e999ea445c29f3e688e6f98241",
    "simulate-star-generation/trajectory.csv":
        "21731f86d0928fe4eefdb091f104d540d6d3a3b01b1742e119f896d9554911c3",
    "simulate-star-hold-T0/summary.json":
        "1eab609e0d47cdd9cca827f5bb251b0920ef94b410d09c36ca2c1516b7eadbae",
    "simulate-star-hold-T0/trajectory.csv":
        "22780fa04c3dbeaea8e413f2109b3ceae96a938b7097b97a62359c7e0d28c894",
    "simulate-star-hold-couplings/summary.json":
        "bb0de412f001848e1bf9ac2b314eeb13e53f018c399c2e37b643ded67419951f",
    "simulate-star-hold-couplings/trajectory.csv":
        "6399f473222e3f15faac0ec5f2060112302b11cfe9cfcb635f0fdbdde653006d",
    "simulate-star-hopping-flip-transfer/summary.json":
        "76e9c4cd0f3060dcb4e4f24d04d678722cd19c585b4810bd18145e1d8b1a6141",
    "simulate-star-hopping-flip-transfer/trajectory.csv":
        "9701073ffaedad1e6c433978a8c9cba5552fac143106596f6e561be59fa9eb89",
    "simulate-star-optimized-star-creation/summary.json":
        "e75b9052f7af24782f360d30aaa485b0c0578911efdf89daa5254000607077e5",
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
        "f79166cb214fdd75adeac6da5bdef4d1ea5dca792012c741f43e54dcd3124bce",
    "simulate-star-phase-flip-transfer/trajectory.csv":
        "ad44df062ca14ce41bf170e8fe56d7d90d6c25627aa30d9696aeaa6ab9547625",
    "simulate-star-piecewise-transfer/summary.json":
        "10a6970c3a040ed0a7ad321c2c349ab46fe9188ef0d262eb069abd81763a9af4",
    "simulate-star-piecewise-transfer/trajectory.csv":
        "e99782cb3ff9de4074931438d170aabae59e0a5a43ff72dfc80b4c47ea47f1a9",
    "simulate-star-reverse-generation/summary.json":
        "b5d3e854fbc7a8dc4898bec255373a5c741180997e53885095d63a3c3a183e0a",
    "simulate-star-reverse-generation/trajectory.csv":
        "fe53c34888cb6ae2d59beb743b019430e505eb9e89e9c44ad0adc225dfa50703",
    "spectrum-dll-2/summary.json":
        "ce80a41fc07ffa817a89178058ffea34415e007bd0a980b6937fb6567f180a53",
    "spectrum-dll-4/summary.json":
        "acfbb7a3613a39695f54f0a58c358a7fa345a688164fb087f4473273e3c2e5cf",
    "spectrum-dll-5/summary.json":
        "dacb267b5ccc485dee0faa35612d254dac289dcbbfe904f460dd2e69475ba5a1",
    "spectrum-seven-J_inner/summary.json":
        "e8286ad87eb1780e1da7426d235d9a8663179471bd2035d7867944483a694485",
    "spectrum-seven-couplings/summary.json":
        "f940d958104da22ae8a5cbdf7e105f67e49fc39ad863b9490626ad9f15e9c9e0",
    "spectrum-seven/summary.json":
        "9a1574a40de95758d188cb50cb99887e62e41860167decee01bf803445997ac0",
    "spectrum-star-couplings/summary.json":
        "bafe9d334146e22adad1c329cdb5c2b6fc5fecabeb02abffc141fe08c4306b77",
    "spectrum-star/summary.json":
        "887184fe565bf9bb09b345904c2de64c42222c050c2cbe5f4f3b5fb7c6958065",
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

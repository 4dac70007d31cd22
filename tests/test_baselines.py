"""Comparison heuristics: path scanning, augment-merge, construct-strike."""

import itertools
import math

import pytest

from mdrpp import (
    Instance,
    RequiredEdge,
    augment_merge,
    check_feasibility,
    construct_strike,
    path_scanning,
    solve_exact,
    solve_multitrip,
)
from mdrpp import baselines
from mdrpp.graph import Arc, DistanceTables, WeightedGraph, one_to_all, path_from_parents
from mdrpp.multitrip import initial_fleet_state
from mdrpp.solution import EPS, Trip, covered_by_walk

from conftest import (
    digest,
    grid_instance,
    integer_instance,
    reference_all_to_set,
    scaled_instance,
    tiny_corpus,
    trivial_instance,
    two_vehicle_instance,
    undirected_graph,
)

ALL = (path_scanning, augment_merge, construct_strike)


@pytest.mark.parametrize("solver", ALL, ids=["ps", "am", "cs"])
def test_trivial_instance_solved(solver):
    inst = trivial_instance()
    sol = solver(inst)
    assert not isinstance(sol, str)
    assert check_feasibility(inst, sol) == []
    assert sol.makespan == pytest.approx(2.0)


@pytest.mark.parametrize("solver", ALL, ids=["ps", "am", "cs"])
def test_solved_outputs_are_feasible_on_corpus(solver):
    solved = 0
    for inst in tiny_corpus(40):
        out = solver(inst)
        if isinstance(out, str):
            assert out
        else:
            solved += 1
            assert check_feasibility(inst, out) == []
    assert solved >= 10


def test_heuristics_never_beat_the_oracle():
    for inst in tiny_corpus(30):
        sols = [out for out in (path_scanning(inst), augment_merge(inst),
                                construct_strike(inst)) if not isinstance(out, str)]
        if not sols:
            continue
        f_cap = max([3] + [len(r.trips) for s in sols for r in s.routes])
        out = solve_exact(inst, f_cap=f_cap, max_edges_per_trip=len(inst.required))
        assert out is not None
        for s in sols:
            assert s.makespan >= out[0].makespan - 1e-9


def test_path_scanning_keeps_the_best_criterion():
    # path_scanning returns the lowest-makespan complete result of the five
    # criteria, the lower criterion on ties, or the reason when none completes
    unsolved = ties = later = 0
    for inst in tiny_corpus(30):
        complete = []
        for criterion in range(baselines.CRITERIA):
            tables = DistanceTables(inst.graph, inst.start_depots)
            state = initial_fleet_state(inst)
            baselines._scan_full(tables, baselines._candidates(tables, inst), state,
                                 criterion, {})
            if not state.remaining:
                sol = state.solution()
                complete.append((sol.makespan, criterion, sol))
        got = path_scanning(inst)
        if not complete:
            assert got == "no criterion covered every required edge", inst.name
            unsolved += 1
            continue
        best = min(complete, key=lambda c: c[:2])
        assert got == best[2], inst.name
        ties += any(c[0] == best[0] and c[2] != best[2] for c in complete)
        later += best[1] > 0
    # 13 Unsolved, 9 equal makespans from different plans, 3 won by criterion > 0
    assert unsolved >= 10
    assert ties >= 5
    assert later >= 2


def test_path_scanning_cannot_reposition():
    # the two-vehicle fixture needs a repositioning move, which plain greedy
    # trip chaining lacks; the result must be Unsolved, not an exception
    out = path_scanning(two_vehicle_instance())
    assert isinstance(out, str) and out


def test_path_scanning_is_deterministic():
    for inst in tiny_corpus(8):
        assert path_scanning(inst) == path_scanning(inst)


def test_augment_merge_single_edge_round_trip():
    # augment alone suffices: one required edge, one vehicle
    g = undirected_graph(3, [(0, 1, 2.0), (1, 2, 3.0), (0, 2, 4.0)])
    inst = Instance(graph=g, depots=(0,), required=(RequiredEdge(1, 2),),
                    vehicles=1, capacity=20.0, recharge_time=1.0, start_depots=(0,))
    sol = augment_merge(inst)
    # cheapest anchored round trip: 0-1-2 (5.0) back over 2-0 (4.0)
    assert sol.makespan == pytest.approx(9.0)


def test_augment_merge_merges_same_depot_routes():
    # two adjacent required edges from one depot merge into a single trip
    g = undirected_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 5.0)])
    inst = Instance(graph=g, depots=(0,),
                    required=(RequiredEdge(0, 1), RequiredEdge(1, 2)),
                    vehicles=1, capacity=3.5, recharge_time=10.0, start_depots=(0,))
    sol = augment_merge(inst)
    # separate trips would cost 3 + 10 + 3; the merged tour 0-1-2-0 costs 3
    assert sol.makespan == pytest.approx(3.0)
    assert len(sol.routes[0].trips) == 1


def test_construct_strike_unsolved_is_reported_not_raised():
    found = next((out for out in map(construct_strike, tiny_corpus(60))
                  if isinstance(out, str)), None)
    assert found, "expected at least one Unsolved outcome"


def test_construct_strike_artificial_edges_are_spliced():
    # striking the only bridge forces an artificial edge; the emitted walk
    # must still be a real walk in the original graph
    g = undirected_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0)])
    inst = Instance(graph=g, depots=(0,),
                    required=(RequiredEdge(1, 2), RequiredEdge(1, 3)),
                    vehicles=1, capacity=8.0, recharge_time=1.0, start_depots=(0,))
    out = construct_strike(inst)
    if not isinstance(out, str):
        assert check_feasibility(inst, out) == []


# digest of each solver's output on tiny_corpus(20)
PINNED_OUTPUTS = {
    "mt": """
        c7248ff6ba71d65d 7e3214752ba91c0a f04cfef827ba4e7a 4393c032ec4bd753
        c9909d0b98eb41ab a7a63a6b075c7629 b1cc285ed98649fe f119465811203862
        b580f5e19178aec2 ba217351384ee55d 48b3c1c219719c47 4949ae1e1d214922
        86c3744d90eb573d 65d3c25db8418eb1 f988e5e378052e2f f291d854a3e9907b
        93a3002cab20aec3 81d901706b89c447 5fa8cb1780bfce72 93b6cbce6d5780c9""",
    "ps": """
        0acf9e30079f6a94 0acf9e30079f6a94 0acf9e30079f6a94 0acf9e30079f6a94
        80c65adca8229f81 8dd0b649f73bd58b 0acf9e30079f6a94 51bb05d074e0fbba
        2650c9002d8b3b9b 11a3e7ab56e0b0ab 50abb9d529dd0928 643a99cc60a4f8b0
        a2144826a234fdc4 1fdbe8d59f5c006b 6933e17b937e8f83 0acf9e30079f6a94
        9afa42ac420de33d 28cb29e802a1724d 0acf9e30079f6a94 ee1269ec6960e2f6""",
    "am": """
        d3a7203d5934212c 53e36aaad7392fe1 4cbac93639e6a9c6 998ec13f7677f786
        687152c9d0a6a5b6 01b98291955035b8 11496865739e1646 2df7afcf774f5ab9
        f604902e5cc0e246 c66123076b4a437e f36dcadce9e593a9 c0cf528522a0a667
        7846d0e56d4587f2 3d2ecff333f72633 6933e17b937e8f83 a22b2894e695427e
        178888151aff0977 c69d03991fd83f4c 2d61daf286125a60 47d68a9a1a578041""",
    "cs": """
        ee54ed324962cd3c ee54ed324962cd3c ee54ed324962cd3c ee54ed324962cd3c
        80c65adca8229f81 8dd0b649f73bd58b ee54ed324962cd3c 51bb05d074e0fbba
        2650c9002d8b3b9b 11a3e7ab56e0b0ab 50abb9d529dd0928 643a99cc60a4f8b0
        a2144826a234fdc4 1fdbe8d59f5c006b 6933e17b937e8f83 ee54ed324962cd3c
        9afa42ac420de33d 28cb29e802a1724d ee54ed324962cd3c ee1269ec6960e2f6""",
}


@pytest.mark.parametrize("alg", sorted(PINNED_OUTPUTS))
def test_outputs_are_pinned_on_corpus(alg):
    solver = {"mt": solve_multitrip, "ps": path_scanning, "am": augment_merge,
              "cs": construct_strike}[alg]
    got = [digest(inst, solver(inst)) for inst in tiny_corpus(20)]
    assert got == PINNED_OUTPUTS[alg].split()


# digest of each solver's output on integer_instance(0..199): integer weights,
# some of them zero, make equal-cost ties common, and ties are where the walk
# a trip takes could drift
PINNED_INTEGER_HEURISTICS = {
    "am": """
        dad566a49479033d 40659a02933defbf 5e3cf2bb1ea5fe9c 2d61daf286125a60 7ea57e64c47ef85a
        4a97764bc25ea563 d176ab93acd8559c 8f25af7e00db183b 3b9cba11b3ab69b1 0475ce10ea5ee967
        1d0072381e4b9223 c8a5ac1c1ad91a73 91b7180cea7ceb45 0d1eed4ad593e631 7bade75b2957713c
        d6ff0f0c9154880d 3d653e933d364f7e ab1a1c254c062acd be743eeded838fc7 826b3aac9c1a7040
        5f8f6d20d31d1e98 3552cdc9f49d0dbd 44f76ec3b44b3ec2 2680e750c36ecf11 b6f702f15fc90023
        7ffdb76b4baa2c93 456b2540629bb036 7ff894624c8068c5 c576d23b90552e70 34afdea18666df1a
        3f09887a2716cf74 3cf486bd4cd3a238 d0a65b2d15c0ee70 ea065e19e3050cf7 e1a5b7937b1d5648
        c12482e0cd547f98 998ec13f7677f786 4fb45024046289ab 24c2ad20eb74f020 f9ebd4ff99514773
        2918523a0214f0c8 a9c420398313387d 4e60f53a5d19a840 dcde421b7c74931e 2169a3b99af8126c
        159becd9c2b41fb7 3664fdfe8c0aa177 49c4d154c49a57b1 852ceedefec848ab a22b2894e695427e
        1eabce7e7aa39f06 32695f0ed1fd27ab 47359d6412a2f3bf 3b9cba11b3ab69b1 706d0e9505eb5a0a
        2918523a0214f0c8 e671474d2b1e7e70 cd63bb294ff0334b 6903942437b03faf 31309ba346c8ff3f
        6a770e6c855692e3 9f2365e87b46df33 3f99d282c45a7ab2 b525c24ee2930189 3f09887a2716cf74
        eddcc258b064f9ec 33f88bd244cd4a3c a20d62593ebcd5a6 3f99d282c45a7ab2 163ec31d8c13a72a
        9d35ffaccda9cfd4 d3a7203d5934212c 4d41ac54bfbfce4c 4e7392dfb7b564a9 b1322b3bfcbc91ed
        44b5547af1758097 9ae3f46656426be2 b706a13e848cdb3b c22d16bfd999a0fe ad1dc4da4051a3ba
        0fc3c4b7cd6340ea 07270092a0e2ce13 388efd4fd00e8732 2e4402fe93076bb9 c22d16bfd999a0fe
        5ee21509355dd014 b2f1f86ac8a4a69b 873a1444e6c602ff d3a7203d5934212c 4b652e71a028de6e
        0effbd8d8a55752c 077776d606df8dd0 3ce4e643d4f3c24e f1ce202d0788a620 048aaae47f5d0dd7
        661fc9eec5f5a52c ca1ba4f455a903b8 e22635d1a91e2248 99814e201008dfe3 e25277ef7976ba40
        0e1ebeb8e4750ae9 6a379539fbeba92f a0188106ed9a9084 e7910d680b4dfe9d ce95d2bdadddd182
        eadc5fec15c64ff9 11496865739e1646 8cc44878f307c828 0e272c7ad26c84db b26f7f31a465b825
        dfd59004eb647988 6e2fea992f8e07c7 fb948452b47c7dd6 c3c69ecf6ff4ed94 4f5d17283e6f7050
        ddc6dd15d7ce1963 ccd0564c805d1de4 b35ff33611fd6619 1240fe855770d0fe fdd993fa131a4e91
        ab3b92c7b75e60e0 3d653e933d364f7e 163ec31d8c13a72a 7f0335d0872386f6 f0a8d3467ea02550
        e22635d1a91e2248 3277d18f9bf226a4 b216602d2cf654d0 b31f80b88d610b19 46fda5974ae5af5b
        957e3031af8621ca a22b2894e695427e 2d61daf286125a60 6ddb2a80eb2fbdc1 93761bc035933fa3
        bcb9f14c1b8dce80 d6ff0f0c9154880d fca7e57aa05371a8 c2b925979dbba16a 54bb13eb17e3df1a
        9ae3f46656426be2 aaa40406681aef0b 6a0de4ce91d52394 4cbac93639e6a9c6 2e4402fe93076bb9
        182d6aa3d67018e9 2e9e691f41808d86 ccd0564c805d1de4 3a1260df14f735c6 d3a7203d5934212c
        1e05a0ebc8232c09 f535ba6557828254 66255816d7ba9d36 ea1fadff591a76e5 073f810c998154a9
        f5b2e00c987a4a46 61e058af87f3ebb6 cdd928532bdaf48b 393060af3b7d60a7 d901ed0672062e4d
        bc0dcb3d569a3a59 eb54d174ab4ba83a 369480fa82abb71f 497e16effeaa1c59 e688c7f75002ceac
        78363d9f60f6401a 1974a5b3909cee19 2918523a0214f0c8 61e058af87f3ebb6 b26665c7f89666cb
        6325a8c4e00aff12 acce225b4c6fe37d afaabfd67230f3a4 d0e13d7413803eec 4a0c6cfe5c83f85a
        f6457a84cad6a836 1b9aeb8aa855bd97 53bae68c2b8729ff b26665c7f89666cb 4dd8c600a0d1e6d0
        a22b2894e695427e f82c74a6bac49f3c cdd928532bdaf48b 8f418eaaf5d55802 3f99d282c45a7ab2
        9ae3f46656426be2 dca6412e4e10cfb2 9c55ec638fb493bd aaa40406681aef0b 4aed386bd153cc6b
        a4d8ea5ed2ad590b 412fbe2fa0d52016 b9f5bd697669a273 d82f863fca7288be 393060af3b7d60a7
        6f5f52402ec6c967 f51820b65dca1514 0effbd8d8a55752c 587bdf804809d399 dfd59004eb647988""",
    "cs": """
        3799c3af9b0e4728 be44b0594483d3e5 b3a87093ab60186f ee54ed324962cd3c ee54ed324962cd3c
        ba4c82ab8dea8618 8be4d78da39cce79 3da43de549a2b631 ee54ed324962cd3c 0fda0f7731a6cf16
        ee54ed324962cd3c ee54ed324962cd3c 62951e0cee9b5c71 8a68ddfcec29a755 16ee682f03f823fa
        ee54ed324962cd3c ee54ed324962cd3c 6e99b009c3b35b05 ee54ed324962cd3c c90dcb59c47eb3d2
        d9d1b253b02bdc18 5c05a61574a05b30 dcae45e6372fdc2f 8b81fcc6acf8de7e b6f702f15fc90023
        8648a3233baa6d1e d22a6ef7a8f7fbef fd699695d19de3eb 92b972b7d65561b5 ee54ed324962cd3c
        ee54ed324962cd3c 2ba56c12014ef99d 858885ff82df64a1 ee54ed324962cd3c 45683b49e1ef9a1c
        ee54ed324962cd3c ee54ed324962cd3c ee54ed324962cd3c ee54ed324962cd3c 687e55e8c154d267
        ee54ed324962cd3c 187de36a867f3446 9459b3f01eed6927 131aba436d363abf d1be77e392126f7e
        dbd503907b2ecf5f c770db6480a4a63b 5eb2e8738ed757ac ee54ed324962cd3c ee54ed324962cd3c
        cf75d30ff7baeb55 ee54ed324962cd3c ee54ed324962cd3c ee54ed324962cd3c c3838c1adff62b6e
        ee54ed324962cd3c 080b42406adb740e 27052c18b25baf5b 4f0f69c975e14a48 882828f8efd73e5b
        5a0ca31a39c6aa2f ee54ed324962cd3c ee54ed324962cd3c 59f267011ff1aa83 ee54ed324962cd3c
        9bcae2e3d64804c5 e3d3972503967ade ee54ed324962cd3c ee54ed324962cd3c ee54ed324962cd3c
        1c5e65b0eec09dff ee54ed324962cd3c 6b77897b6e3e0373 ee54ed324962cd3c 782d13ff61eddd85
        4ff37c70416a1850 ee54ed324962cd3c 3d8bfa08b2dfac3e ee54ed324962cd3c 4dc9c72c65087aa0
        b69042ce25002a66 ee54ed324962cd3c 564cfb73e7790625 ee54ed324962cd3c ee54ed324962cd3c
        ee54ed324962cd3c ee54ed324962cd3c 432ccf859484ce00 ee54ed324962cd3c 0462585ddadb4d19
        ee54ed324962cd3c 2b9656608df561bb e9675f0c31d5ba0a 4fde22b3c8558676 ee54ed324962cd3c
        72b9b84faa193944 ee54ed324962cd3c ee54ed324962cd3c d10c1d066e328eb1 3398bd3dd2525781
        ee54ed324962cd3c 6066c72ddd12b45d 445f48c7750091ac dac810c8a888ec6f c0713fb1640bad64
        ee54ed324962cd3c ee54ed324962cd3c 0d0b4257dc72714a 9ead147229ce137a 41df0bd435c0639d
        ee54ed324962cd3c dcee3e9c7d861ce2 8dc46560bb1cfc20 e37e5abdb3c0c62f ee54ed324962cd3c
        eba236fee6ec08fd ee54ed324962cd3c ee54ed324962cd3c 68381da925457a88 4344ba13873f98da
        ee54ed324962cd3c ee54ed324962cd3c ee54ed324962cd3c 92ea1dcac1088ee6 a98fa1fc7978a977
        ee54ed324962cd3c ee54ed324962cd3c b6546e4423721bdf f8c2222e1d404d20 ee54ed324962cd3c
        566312d7c0e300c7 ee54ed324962cd3c ee54ed324962cd3c 61f234ea788241d6 ee54ed324962cd3c
        ee54ed324962cd3c ee54ed324962cd3c cc930641ce41e213 23db1d1e0f09560b f558956a088271d2
        ee54ed324962cd3c ee54ed324962cd3c ee54ed324962cd3c ee54ed324962cd3c ee54ed324962cd3c
        ee54ed324962cd3c 3e4dc5679ea59436 ee54ed324962cd3c a5cc2131aaa8b4ca aa426a787f71513a
        c3848962c3148120 ee54ed324962cd3c 21a8940897bb4f9e ee54ed324962cd3c 43ddc8f5cde70505
        4dd6f233cb069e10 ee54ed324962cd3c ee54ed324962cd3c ee54ed324962cd3c ee54ed324962cd3c
        541ef07236427e52 ee54ed324962cd3c 679614832d4f1fda c787e3838753353c 0172f8a372347202
        21da0f5e21c892ad cbe2b34d16219f35 ee54ed324962cd3c ee54ed324962cd3c ee54ed324962cd3c
        7cb89e16b6df82ac a1aa09e912209187 ee54ed324962cd3c 3f1e5ec0f6ea091d 858bb5c6c8b5a2b7
        ee54ed324962cd3c ee54ed324962cd3c d5ff58c16fd6ed17 ee54ed324962cd3c ee54ed324962cd3c
        ee54ed324962cd3c ee54ed324962cd3c ee54ed324962cd3c c3ffebb42897c636 ee54ed324962cd3c
        ee54ed324962cd3c 37cbd831aa550fd3 974496696f2bd427 ee54ed324962cd3c ee54ed324962cd3c
        3215d904394b3555 8a4e76f402f4b02e e4719c4ad91b6ba1 ee54ed324962cd3c ee54ed324962cd3c
        ee54ed324962cd3c bcf805cbbb410368 ee54ed324962cd3c 6a01f691d6c25f2b ee54ed324962cd3c""",
    "mt": """
        8a92976b0fadc40b 0809f513f8338ef7 fa8333961cecebad 422ad0611a91c464 62910ba4541190af
        0462d6a4cecdd7e0 8be4d78da39cce79 12a5d96a17107c5d 974970fc9c99213b 16f2c7f2aae4714f
        f4bf8fdd5fb2f36e 6c750a488a5c571f f49dea57182298dc c431e1407dce203d bd45a35bfac46dd2
        815c81e0c71d670c 250f57756985deca be4647840b82cd64 29be1cc92a4c4c9d c90dcb59c47eb3d2
        b2d8f8553220c4cd 9118b1b42673fafd 785526ac1e637e31 4b30ed28fba5373c c3b90c1d5bf07c7b
        21d8432fb262b7b7 494c2bc4f8cb08c4 97946c8376758bd6 4085afc40af39a25 d4530c9644d6eef5
        caf82803558430cc 2ba56c12014ef99d e1d61bce7734eab1 ae493489e3a42cf9 6f1bc91d342f39eb
        47e78b8622221bb3 59e099d585d5f0ff 490f1fd11df88336 d7c1633e3ab6aeab eb95707492af3215
        d456f4e4d889f2b9 4f934f4088d93a7f e42d1dd49713cbd8 25fed9a2ce388827 fe78bc7a139db216
        084d07f29ef30164 026c66ae47015040 9c522c1ebca64fc6 e288328adaba06e0 a32d067d17a34189
        46bdc01d7c8e3568 9c4473af2df92992 319bce526f8f6813 9457e1c8f3c2a305 9b8681f56322fed9
        b7ba0bbfce0e8cbf 6906f9979f4d8b2b 4d8b331879cdccc4 22ad7c2d77c7ad93 0212e38e553cb112
        6ddc5378d56b7145 a676689a6a8cc6b5 232b3ba2e1007bf4 adcecf47a54c2aaa 002db8534a30ea27
        60eabab2d6d577a1 fed05323c4858832 ddec84f1004e5abc 9342fefb82bd6d0b 8998647b160b8f2f
        58077e3993b1502d b8cf18ce576cbfb8 ac1a18d4018891bb 0bb74e6f8ad9670f 49b386528d150f66
        b43559033845739d 84c74b225cfa3505 c6e3831501519f19 ea41c958c90126c9 e29f7b03f15e4055
        893fd44c7c946da4 70b5a54dc67401bb fea3427c84e0866b 733a3a4a9d404ede be8547b37d6fa090
        a532b0e3ea653148 3c803dd970728b79 e05d359b9cadf24b 9c0b44c3db880ee8 1220cdc3546566af
        4791c82e33bab591 3a4e183f907a26d8 7c0c8602ebc37acb cc7a5bf4469bf82a 412f6bcc769d2a0f
        6451fa14b03c4a52 9ba50be4e809d5b2 eafd118de1530613 610473b1f30d9b7c 9aa40e89e0f6e95c
        9ed2cfc29b699f08 9e969d2581ef7f7a 437c187c08ee61fc 08e02ffef697715c 7ed1e3660086b854
        36f863fa01db1327 1e052fc2a8e9bd3a a0d547f7c5a9aac5 b1be4108d868ab4b e19bcc70958e772f
        ea60a4b420cc770c c1829396b2f72442 3b4ba778c6228557 0d3eb0f64b150553 2cdbfc0e55b719a3
        8a004c404ccee157 3291358846fae61b 6cd6a10ba645035a 61bb99461bd8f369 a5b3694410a06923
        660ec421e78ebbef 202f17a9fe69158a 82ede3a233e83420 57a2850c6549df69 e849ba8ee33f70a9
        82e95c718f6496f6 35990ebd6f5b1c8e d2d8aedd9527260e 386d67fea65b07df 357f3c92aa60a81b
        721f864423a71bfc 457508189b3f9281 ef9068d68799c919 cc36bf0ccc07c22b c87712e79cd27dda
        7002d8482656a3b9 aee06f20d60e8921 bd00996216f58a8d 76cdff4f7ac2266a e9bcf0a5ca5e7cf5
        a77483a52ce27b99 11523acd4a6b6c15 472fd15e37c3c0de fac47f5dc7a97fe9 069a0723327a3ca1
        aa7a21deda16ced3 7020f8b5299b219a 6797bfc8e142e59d 323abf5e18b9c42f aa426a787f71513a
        59d81f4c4b49e991 d9fc052ce3a7c177 83efdb1e7ec74a1a f7b943f02f53468d ac031c8b2bd155a8
        8eb9e87534c1fefe 836f4fed0cb4d16f 5b73f989a7f412e1 a260ba2795e9bf62 98ca533925c2655e
        02dd5c38b39a3989 f28364c9e50056a3 af0e64cb6f73740a 8e37a1470eacb320 8242d3e01c6127fe
        8a241ee3c5baea76 69e51e52736fe0c0 5dd5519f5460fe44 2a3a7ecf8899a2ef 3093b64519da0e37
        d6796da57b2df742 ee9ce02481c56975 2b5368fe5b79fd39 d52438300828ab22 b75f990ca854a653
        d8e41c323ac2f885 e0b6ba10f93bf23a 96f7f86635114567 bf53d0244b7f8a9d 495ac00fa753db28
        2f77138956526121 64fd201c262a1ed2 921710ea8ae3078a 6ca655861e3790f9 8c2c1a8ad370990a
        21a4651723edbc77 10aa5a23d9c2540a 94c6ed37edd29016 cf1d0eae203cf046 e1fdb13f86051940
        cb1822f667dd53af 30a16ffa648e23ee a68a36617567e05c 83f6648e79b5afab ae59c24b02743cf9
        29ca4f6315178fff eaae81dd19d08b7d 28bf4dde2382c9c8 9a50880ed8c9c3a9 95bf58dc80fa6b54""",
    "ps": """
        3799c3af9b0e4728 be44b0594483d3e5 b3a87093ab60186f 0acf9e30079f6a94 0acf9e30079f6a94
        ba4c82ab8dea8618 8be4d78da39cce79 3da43de549a2b631 0acf9e30079f6a94 0fda0f7731a6cf16
        0acf9e30079f6a94 0acf9e30079f6a94 62951e0cee9b5c71 8a68ddfcec29a755 16ee682f03f823fa
        0acf9e30079f6a94 0acf9e30079f6a94 6e99b009c3b35b05 0acf9e30079f6a94 c90dcb59c47eb3d2
        d9d1b253b02bdc18 5c05a61574a05b30 dcae45e6372fdc2f 8b81fcc6acf8de7e b6f702f15fc90023
        8648a3233baa6d1e d22a6ef7a8f7fbef fd699695d19de3eb 92b972b7d65561b5 0acf9e30079f6a94
        0acf9e30079f6a94 2ba56c12014ef99d 858885ff82df64a1 0acf9e30079f6a94 45683b49e1ef9a1c
        0acf9e30079f6a94 0acf9e30079f6a94 0acf9e30079f6a94 0acf9e30079f6a94 687e55e8c154d267
        0acf9e30079f6a94 187de36a867f3446 9459b3f01eed6927 131aba436d363abf d1be77e392126f7e
        dbd503907b2ecf5f c770db6480a4a63b 5eb2e8738ed757ac 0acf9e30079f6a94 0acf9e30079f6a94
        cf75d30ff7baeb55 0acf9e30079f6a94 0acf9e30079f6a94 0acf9e30079f6a94 c3838c1adff62b6e
        0acf9e30079f6a94 080b42406adb740e 27052c18b25baf5b 4f0f69c975e14a48 882828f8efd73e5b
        5a0ca31a39c6aa2f 0acf9e30079f6a94 0acf9e30079f6a94 59f267011ff1aa83 0acf9e30079f6a94
        9bcae2e3d64804c5 e3d3972503967ade 0acf9e30079f6a94 0acf9e30079f6a94 0acf9e30079f6a94
        1c5e65b0eec09dff 0acf9e30079f6a94 6b77897b6e3e0373 0acf9e30079f6a94 782d13ff61eddd85
        4ff37c70416a1850 0acf9e30079f6a94 3d8bfa08b2dfac3e 0acf9e30079f6a94 4dc9c72c65087aa0
        b69042ce25002a66 0acf9e30079f6a94 564cfb73e7790625 0acf9e30079f6a94 0acf9e30079f6a94
        0acf9e30079f6a94 0acf9e30079f6a94 432ccf859484ce00 0acf9e30079f6a94 0462585ddadb4d19
        0acf9e30079f6a94 2b9656608df561bb e9675f0c31d5ba0a 4fde22b3c8558676 0acf9e30079f6a94
        72b9b84faa193944 0acf9e30079f6a94 0acf9e30079f6a94 d10c1d066e328eb1 3398bd3dd2525781
        0acf9e30079f6a94 6066c72ddd12b45d 445f48c7750091ac dac810c8a888ec6f c0713fb1640bad64
        0acf9e30079f6a94 0acf9e30079f6a94 0d0b4257dc72714a 9ead147229ce137a 41df0bd435c0639d
        0acf9e30079f6a94 dcee3e9c7d861ce2 8dc46560bb1cfc20 e37e5abdb3c0c62f 0acf9e30079f6a94
        eba236fee6ec08fd 0acf9e30079f6a94 0acf9e30079f6a94 68381da925457a88 4344ba13873f98da
        0acf9e30079f6a94 0acf9e30079f6a94 0acf9e30079f6a94 92ea1dcac1088ee6 a98fa1fc7978a977
        0acf9e30079f6a94 0acf9e30079f6a94 b6546e4423721bdf f8c2222e1d404d20 0acf9e30079f6a94
        566312d7c0e300c7 0acf9e30079f6a94 0acf9e30079f6a94 61f234ea788241d6 0acf9e30079f6a94
        0acf9e30079f6a94 0acf9e30079f6a94 cc930641ce41e213 23db1d1e0f09560b f558956a088271d2
        0acf9e30079f6a94 0acf9e30079f6a94 0acf9e30079f6a94 0acf9e30079f6a94 0acf9e30079f6a94
        0acf9e30079f6a94 3e4dc5679ea59436 0acf9e30079f6a94 a5cc2131aaa8b4ca aa426a787f71513a
        c3848962c3148120 0acf9e30079f6a94 21a8940897bb4f9e 0acf9e30079f6a94 43ddc8f5cde70505
        4dd6f233cb069e10 0acf9e30079f6a94 0acf9e30079f6a94 0acf9e30079f6a94 0acf9e30079f6a94
        541ef07236427e52 0acf9e30079f6a94 679614832d4f1fda c787e3838753353c 0172f8a372347202
        21da0f5e21c892ad cbe2b34d16219f35 0acf9e30079f6a94 0acf9e30079f6a94 0acf9e30079f6a94
        7cb89e16b6df82ac a1aa09e912209187 0acf9e30079f6a94 3f1e5ec0f6ea091d 858bb5c6c8b5a2b7
        0acf9e30079f6a94 0acf9e30079f6a94 d5ff58c16fd6ed17 0acf9e30079f6a94 0acf9e30079f6a94
        0acf9e30079f6a94 0acf9e30079f6a94 0acf9e30079f6a94 c3ffebb42897c636 0acf9e30079f6a94
        0acf9e30079f6a94 37cbd831aa550fd3 974496696f2bd427 0acf9e30079f6a94 0acf9e30079f6a94
        3215d904394b3555 8a4e76f402f4b02e e4719c4ad91b6ba1 0acf9e30079f6a94 0acf9e30079f6a94
        0acf9e30079f6a94 bcf805cbbb410368 0acf9e30079f6a94 6a01f691d6c25f2b 0acf9e30079f6a94""",
}


@pytest.mark.parametrize("alg", sorted(PINNED_INTEGER_HEURISTICS))
def test_outputs_are_pinned_on_integer_instances(alg):
    solver = {"mt": solve_multitrip, "ps": path_scanning, "am": augment_merge,
              "cs": construct_strike}[alg]
    got = [digest(inst, solver(inst)) for inst in map(integer_instance, range(200))]
    assert got == PINNED_INTEGER_HEURISTICS[alg].split()


# digest of the mt output on scaled instances: (nodes, edges, seed, set kind)
# -> digest.  The set-A instance repositions vehicles and ends with a partial
# solution.
PINNED_SCALED_MT = {
    (461, 879, 1, "B"): "9662dbe545d8045a",
    (230, 440, 1, "A"): "6adaefa70c7fd9e2",
    (922, 1758, 1, "B"): "bf78dd0b07ce9e27",
}


@pytest.mark.parametrize("spec", sorted(PINNED_SCALED_MT), ids=str)
def test_mt_output_is_pinned_on_scaled_instances(spec):
    inst = scaled_instance(*spec)
    assert digest(inst, solve_multitrip(inst)) == PINNED_SCALED_MT[spec]


def test_cs_output_is_pinned_where_trial_copies_revive_vehicles():
    # construct_strike revives retired vehicles on each criterion's copy of
    # the fleet.  No instance is known on which that decides the output:
    # deleting the revival changed none on tiny_corpus(10000),
    # integer_instance(0..9999), the mid-ladder recipe at seeds 0..299 and
    # the 230-node sets at seeds 1..40.  This instance stands in for one,
    # with its output pinned
    inst = tiny_corpus(1, offset=169)[0]
    assert inst.name == "C-n6-e8-s169"
    out = construct_strike(inst)
    assert out == "no progress after striking"
    assert digest(inst, out) == "ee54ed324962cd3c"


def test_cs_return_arc_is_its_own_shortest_path():
    # on these asymmetric set-C graphs the way back along an artificial arc
    # costs more than the way out, so a plan that priced it as the way out
    # would understate a trip past the capacity
    for seed in (169, 274, 414):
        inst = tiny_corpus(1, offset=seed)[0]
        out = construct_strike(inst)
        assert isinstance(out, str) or check_feasibility(inst, out) == []


def test_cs_artificial_arcs_take_the_least_endpoint_and_their_own_way_back():
    # from depot 0, endpoints 1 and 2 tie at cost 1 in the original graph and
    # node 1 wins; there is no arc 1 -> 0, so the way back is 1 -> 2 -> 0.
    # Without the arc 2 -> 0 there is no way back, and no return arc
    for back, expected in ((True, {(0, 1): (0, 1), (1, 0): (1, 2, 0)}),
                           (False, {(0, 1): (0, 1)})):
        arcs = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (2, 1, 1.0)] + [(2, 0, 1.0)] * back
        inst = Instance(graph=WeightedGraph(3, arcs), depots=(0,),
                        required=(RequiredEdge(1, 2),), vehicles=1, capacity=9.0,
                        recharge_time=1.0, start_depots=(0,))
        residual_arcs = [Arc(1, 2, 1.0), Arc(2, 1, 1.0)]
        tables = DistanceTables(WeightedGraph(3, residual_arcs), inst.start_depots)
        artificial = {}
        assert baselines._add_artificial_edges(
            inst, tables, DistanceTables(inst.graph, inst.start_depots), residual_arcs,
            artificial, list(inst.required))
        assert artificial == expected
        assert residual_arcs[2:] == [Arc(0, 1, 1.0)] + [Arc(1, 0, 2.0)] * back


# digest of the ps, am and cs outputs on the seed-1 230-node instances, by set
# kind.  On set A, every ps criterion leaves edges uncovered, am finds an edge
# out of reach and cs reports that striking made no progress.
PINNED_SCALED_BASELINES = {
    "A": {"ps": "0acf9e30079f6a94", "am": "9e27efbff22bb259", "cs": "ee54ed324962cd3c"},
    "B": {"ps": "360e04ef26cd9b95", "am": "268f2e4032d14b76", "cs": "360e04ef26cd9b95"},
    "C": {"ps": "b841eddc8d677d93", "am": "ad46f4949b2b2f59", "cs": "b841eddc8d677d93"},
}


@pytest.mark.parametrize("kind", sorted(PINNED_SCALED_BASELINES))
def test_baselines_output_is_pinned_on_scaled_instances(kind):
    inst = scaled_instance(230, 440, 1, kind)
    got = {alg: digest(inst, solver(inst))
           for alg, solver in (("ps", path_scanning), ("am", augment_merge),
                               ("cs", construct_strike))}
    assert got == PINNED_SCALED_BASELINES[kind]


# digest of the ps, am and cs outputs on seed-1 grids, by side: bounded runs
# stop shortest of full rows on these large-diameter graphs
PINNED_GRID_BASELINES = {
    15: {"ps": "9f1b069c91480368", "am": "e42b37eef87889e8", "cs": "9f1b069c91480368"},
    20: {"ps": "1ec75de7956989f3", "am": "9c3aae643c9ab537", "cs": "1ec75de7956989f3"},
    30: {"ps": "d97512c1d4d84357", "am": "8e28060986be0db0", "cs": "d97512c1d4d84357"},
}


@pytest.mark.parametrize("side", sorted(PINNED_GRID_BASELINES))
def test_baselines_output_is_pinned_on_grids(side):
    inst = grid_instance(side, 1)
    got = {alg: digest(inst, solver(inst))
           for alg, solver in (("ps", path_scanning), ("am", augment_merge),
                               ("cs", construct_strike))}
    assert got == PINNED_GRID_BASELINES[side]


def _reference_trip(graph, to_depot, inst, start, uncovered, criterion, artificial, seen):
    """Brute-force trip builder: complete Dijkstra rows, the reference
    to-depot table, coverage of the whole walk so far and a filtered list of
    uncovered edges; None when the spliced walk covers none of the edges
    uncovered at the start.  Counts in `seen` the steps whose best key is
    shared by another candidate, and those whose leg and return fill the
    capacity exactly."""
    was_open = set(uncovered)
    to_depot_cost, to_depot_succ = to_depot
    cur = start
    used = 0.0
    walk = (start,)
    while True:
        costs, parents = one_to_all(graph, cur)
        options = []
        for idx, e in enumerate(uncovered):
            for orient, (tail, head) in enumerate(e.orientations()):
                w = graph.min_weight(tail, head)
                if w is None:
                    continue
                deadhead = costs[tail]
                ret = to_depot_cost[head]
                total = used + deadhead + w + ret
                if total > inst.capacity + EPS:
                    continue
                key = (deadhead, -ret, ret, deadhead + w, -(deadhead + w))[criterion]
                options.append(((key, idx, orient), tail, head, deadhead + w, total))
        if not options:
            break
        best = min(options)
        seen["ties"] += sum(o[0][0] == best[0][0] for o in options) > 1
        seen["at_capacity"] += best[4] == inst.capacity
        _, tail, head, serve, _ = best
        walk = walk + path_from_parents(parents, cur, tail)[1:] + (head,)
        used += serve
        cur = head
        touched = {inst.required[pos] for pos in covered_by_walk(inst, walk)}
        uncovered = [e for e in uncovered if e not in touched]
    if cur == start and len(walk) == 1:
        return None
    while to_depot_succ[walk[-1]] != -1:
        walk = walk + (to_depot_succ[walk[-1]],)
    duration = used + to_depot_cost[cur]
    real = baselines._splice(walk, artificial)
    if not any(inst.required[pos] in was_open for pos in covered_by_walk(inst, real)):
        return None
    return Trip(nodes=real, duration=duration)


def test_build_trip_matches_brute_force_reference(monkeypatch):
    # every trip that ps and cs build, mid-solve and for all five criteria,
    # equals the brute-force one, which reads no DistanceTables
    build_trip = baselines._build_trip
    to_depot = {}
    seen = {"trips": 0, "ties": 0, "at_capacity": 0}

    def checked(tables, candidates, inst, start, is_open, criterion, artificial):
        before = list(is_open)
        trip = build_trip(tables, candidates, inst, start, is_open, criterion, artificial)
        assert is_open == before
        if tables not in to_depot:
            to_depot[tables] = reference_all_to_set(tables.graph, inst.start_depots)
        uncovered = [e for e, flag in zip(inst.required, is_open) if flag]
        assert trip == _reference_trip(tables.graph, to_depot[tables], inst, start, uncovered,
                                       criterion, artificial, seen)
        seen["trips"] += trip is not None
        return trip

    monkeypatch.setattr(baselines, "_build_trip", checked)
    for inst in [*tiny_corpus(60), *(integer_instance(seed) for seed in range(60))]:
        path_scanning(inst)
        construct_strike(inst)
    # 1942 trips, 1196 steps with an equal best key, 544 filling the capacity
    assert seen["trips"] >= 1500
    assert seen["ties"] >= 800
    assert seen["at_capacity"] >= 400


def _reference_augment_merge(inst, seen):
    """Augment-merge on complete Dijkstra rows: every anchor for every edge,
    and a merge loop that re-sorts the routes by (-cost, depot) and rescans
    every pair after each merge.  Counts in `seen` the merge rounds and those
    whose sorted routes share a (-cost, depot) key, where the sort's
    stability (so the creation order) decides."""
    anchors = sorted(set(inst.start_depots))
    limit = inst.capacity + EPS
    rows = {}

    def row(src):
        if src not in rows:
            rows[src] = one_to_all(inst.graph, src)
        return rows[src]

    def chain_cost(depot, legs):
        total = 0.0
        pos = depot
        for tail, head in legs:
            total += row(pos)[0][tail] + inst.graph.min_weight(tail, head)
            pos = head
        return total + row(pos)[0][depot]

    routes = []
    for created, e in enumerate(inst.required):
        best = None
        for d in anchors:
            for tail, head in e.orientations():
                w = inst.graph.min_weight(tail, head)
                if w is None:
                    continue
                cost = row(d)[0][tail] + w + row(head)[0][d]
                if cost <= limit and (best is None or cost < best[0]):
                    best = (cost, d, (tail, head))
        if best is None:
            return f"required edge ({e.frm},{e.to}) unreachable within capacity"
        routes.append((best[1], [best[2]], best[0], created))
    created = len(routes)
    merged = True
    while merged:
        merged = False
        routes.sort(key=lambda r: (-r[2], r[0]))
        seen["rounds"] += 1
        seen["tied"] += len({(r[2], r[0]) for r in routes}) < len(routes)
        for i, j in itertools.permutations(range(len(routes)), 2):
            (depot, legs_i, cost_i, _), (other, legs_j, cost_j, _) = routes[i], routes[j]
            if depot != other:
                continue
            for legs in (legs_i + legs_j, legs_j + legs_i):
                cost = chain_cost(depot, legs)
                if cost <= limit and cost < cost_i + cost_j - EPS:
                    routes = [r for k, r in enumerate(routes) if k not in (i, j)]
                    routes.append((depot, legs, cost, created))
                    created += 1
                    merged = True
                    break
            if merged:
                break

    state = initial_fleet_state(inst)
    for depot, legs, cost, _ in sorted(routes, key=lambda r: (-r[2], r[0], r[1])):
        walk = (depot,)
        for tail, head in legs:
            walk = walk + path_from_parents(row(walk[-1])[1], walk[-1], tail)[1:] + (head,)
        walk = walk + path_from_parents(row(walk[-1])[1], walk[-1], depot)[1:]
        k = min((state.vehicles[k].available, k) for k in range(inst.vehicles)
                if inst.start_depot(k) == depot)[1]
        state.commit(k, Trip(walk, cost))
    return state.solution()


def test_augment_merge_matches_full_row_reference():
    seen = {"rounds": 0, "tied": 0}
    corpus = [*tiny_corpus(60), *(integer_instance(seed) for seed in range(60)),
              scaled_instance(230, 440, 1, "B"), scaled_instance(230, 440, 1, "C")]
    for inst in corpus:
        assert augment_merge(inst) == _reference_augment_merge(inst, seen), inst.name
    # 308 merge rounds, 121 of them with routes that share a (-cost, depot) key
    assert seen["rounds"] >= 250
    assert seen["tied"] >= 100


def _reference_walk(graph, to_depot, start, legs, end):
    """Walk and duration of a trip on complete Dijkstra rows, summed as
    `acc += deadhead + w` per leg, then `acc + back`."""
    walk, acc, pos = (start,), 0.0, start
    for tail, head in legs:
        costs, parents = one_to_all(graph, pos)
        acc += costs[tail] + graph.min_weight(tail, head)
        walk = walk + path_from_parents(parents, pos, tail)[1:] + (head,)
        pos = head
    if end is None:
        cost, succ = to_depot
        while succ[walk[-1]] != -1:
            walk = walk + (succ[walk[-1]],)
        return walk, acc + cost[pos]
    costs, parents = one_to_all(graph, pos)
    return walk + path_from_parents(parents, pos, end)[1:], acc + costs[end]


def test_trip_matches_one_to_all_reference(monkeypatch):
    # every trip the four heuristics ask for equals, bit for bit, the one
    # built on complete rows, and so does the same trip on fresh tables.  A
    # caller whose runs have settled every tail and the end, as every caller
    # here has, gets its trip without any run advancing
    init, trip = DistanceTables.__init__, DistanceTables.trip
    seen = {"nearest": 0, "depot": 0, "legless": 0}

    def recording_init(self, graph, depots):
        init(self, graph, depots)
        self.depots = tuple(depots)
        self.reference = reference_all_to_set(graph, depots)

    def checked(self, start, legs, end=None):
        legs = list(legs)
        stops = [tail for tail, _ in legs] + ([] if end is None else [end])
        sources = [start] + [head for _, head in legs]
        settled = all(src in self._runs and self._runs[src].costs[dst] < self._runs[src].frontier
                      for src, dst in zip(sources, stops))
        before = {src: len(run.settled) for src, run in self._runs.items()}
        got = trip(self, start, legs, end)
        expected = _reference_walk(self.graph, self.reference, start, legs, end)
        assert got == expected
        assert trip(DistanceTables(self.graph, self.depots), start, legs, end) == expected
        assert settled
        assert {src: len(run.settled) for src, run in self._runs.items()} == before
        seen["nearest" if end is None else "depot" if legs else "legless"] += 1
        return got

    monkeypatch.setattr(DistanceTables, "__init__", recording_init)
    monkeypatch.setattr(DistanceTables, "trip", checked)
    for inst in [*(integer_instance(seed) for seed in range(60)), grid_instance(15, 1)]:
        for solver in (solve_multitrip, path_scanning, augment_merge, construct_strike):
            solver(inst)
    # 1613 trips to the nearest depot (ps, cs and mt's covering trips), 199
    # am routes and 20 legless ones (mt's moves, cs's artificial arcs)
    assert seen["nearest"] >= 1400
    assert seen["depot"] >= 150
    assert seen["legless"] >= 15


def test_build_trip_keeps_a_trip_at_the_limit_up_to_rounding():
    # after serving (0,1) the last tail, node 3, lies one ulp past
    # limit - used, yet the trip passes the capacity test once summed; node 2
    # lies as far and node 3 is reached through it by a zero-weight edge, so
    # only the EPS margin of the run's bound gives node 3 its true cost
    used = 0.25
    limit = 1.0 + EPS
    far = math.nextafter(limit - used, math.inf)
    assert used + far <= limit
    g = undirected_graph(5, [(0, 1, used), (1, 2, far), (2, 3, 0.0), (1, 3, 1.5),
                             (3, 4, 0.0)])
    inst = Instance(graph=g, depots=(0, 4), required=(RequiredEdge(0, 1), RequiredEdge(3, 4)),
                    vehicles=2, capacity=1.0, recharge_time=1.0, start_depots=(0, 4))
    tables = DistanceTables(inst.graph, inst.start_depots)
    trip = baselines._build_trip(tables, baselines._candidates(tables, inst), inst, 0,
                                 [True, True], 0, {})
    assert trip.nodes == (0, 1, 2, 3, 4)
    assert covered_by_walk(inst, trip.nodes) == {0, 1}


def test_build_trip_refuses_a_spliced_walk_that_closes_no_open_edge():
    # the artificial arc (0, 1) stands for the path 0-2-1, which does not
    # cross the directed required edge (0, 1) that its leg was picked for
    g = WeightedGraph(3, [(0, 1, 5.0), (1, 0, 1.0), (0, 2, 1.0), (2, 1, 1.0)])
    inst = Instance(graph=g, depots=(0,), required=(RequiredEdge(0, 1, directed=True),),
                    vehicles=1, capacity=20.0, recharge_time=0.0, start_depots=(0,))
    tables = DistanceTables(WeightedGraph(3, [(0, 1, 2.0), (1, 0, 1.0)]), inst.start_depots)
    args = (tables, baselines._candidates(tables, inst), inst, 0, [True], 0)
    assert baselines._build_trip(*args, {}).nodes == (0, 1, 0)
    assert baselines._build_trip(*args, {(0, 1): (0, 2, 1)}) is None

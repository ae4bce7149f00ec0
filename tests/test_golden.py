"""Golden transcript: sha256 of stdout and the exit code of fixed CLI runs.

CLI stdout and canonical keys are the behaviour contract, so any change to
the kernels, the census or the maps must leave every hash below unchanged.
The runs go through ``splitkit.cli.main`` in-process, each with empty
census stores (generated levels and records) as in a fresh process.  The
sorted ``enumerate`` output at n = 8 is pinned like any other run, and the
census key lists at n = 8 by one sha256 per class.  To print the tables
for a deliberate, documented output change, run

    PYTHONPATH=src python tests/test_golden.py
"""

import ast
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from splitkit import census
from splitkit.census import enumerate_class
from splitkit.cli import main

_CLASSES = ("split", "cover", "xy", "poset")
_SPLIT_4 = "C?\nC@\nCB\nCF\nCJ\nCL\nCN\nC^\nC~\n"  # enumerate --class split --n 4
_README_PIPES = (
    (_SPLIT_4, ["classify"]),  # the README's enumerate | classify pipeline
    ("Bg\n", ["map", "--from", "split", "--to", "cover"]),
    ('{"class":"xy","nx":1,"ny":1,"edges":[[0,0]]}\n', ["map", "--from", "xy", "--to", "split-shift"]),
    ("CF\n", ["compile", "--class", "split", "--direction", "down"]),
    (
        '{"class":"poset","n0":0,"n1":0,"below":[]}\n',
        ["compile", "--class", "poset", "--direction", "up", "--n", "2"],
    ),
)
# (class whose n = 4 census is piped in, argv); between them the records
# print every choice label the maps have
_MAP_PIPES = (
    [(cls, ["compile", "--class", cls, "--direction", "down"]) for cls in _CLASSES]
    + [(cls, ["compile", "--class", cls, "--direction", "up", "--n", "5"]) for cls in _CLASSES]
    + [
        ("cover", ["map", "--from", "cover", "--to", "split"]),
        ("split", ["map", "--from", "split", "--to", "xy-shift"]),
        ("cover", ["map", "--from", "split", "--to", "cover", "--inverse"]),
    ]
)
# one stdin with a good line, a comment, an empty line, a graph6 and a JSON
# parse error, a non-split graph, an XY-graph with and without a Y-isolate
# and a non-minimal cover,
# through every per-line command
_MIXED = (
    "CF\n# a comment\n\nC\n{\"class\":\nCr\n"
    '{"class":"xy","nx":1,"ny":1,"edges":[[0,0]]}\n'
    '{"class":"xy","nx":1,"ny":2,"edges":[[0,0]]}\n'
    '{"class":"cover","n":2,"sets":[[0,1],[1]]}\n'
)
_MIXED_PIPES = (
    ["classify"],
    ["classify", "--class", "split"],
    ["map", "--from", "split", "--to", "cover"],
    ["compile", "--class", "split", "--direction", "down"],
    ["compile", "--class", "split", "--direction", "up", "--n", "6"],
)
_CHOICE_LABELS = {"rep[0]", "swing", "extremal_set", "universal", "demote", "promote"}


def _runs():
    """(name, stdin text, argv) of every pinned run."""
    runs = []
    for cls in _CLASSES:
        for n in range(7):
            base = ["enumerate", "--class", cls, "--n", str(n)]
            runs.append((" ".join(base), "", base))
            for extra in (["--balance", "balanced"], ["--balance", "unbalanced"], ["--stream"], ["--count-only"]):
                argv = base + extra
                runs.append((" ".join(argv), "", argv))
    for n in (7, 8):
        for cls in _CLASSES:
            argv = ["enumerate", "--class", cls, "--n", str(n)]
            runs.append((" ".join(argv), "", argv))
    for n in range(8):
        argv = ["enumerate", "--class", "xy", "--n", str(n), "--no-y-isolates"]
        runs.append((" ".join(argv), "", argv))
    runs.append(("gallery --n 5", "", ["gallery", "--n", "5"]))
    for stdin, argv in _README_PIPES:
        source = "split census n=4" if stdin == _SPLIT_4 else stdin.strip()
        runs.append((f"{source} | {' '.join(argv)}", stdin, argv))
    for cls, argv in _MAP_PIPES:
        stdin = _capture("", ["enumerate", "--class", cls, "--n", "4"])[1]
        runs.append((f"{cls} census n=4 | {' '.join(argv)}", stdin, argv))
    for cls in _CLASSES[1:]:  # the split census is classified above
        stdin = _capture("", ["enumerate", "--class", cls, "--n", "4"])[1]
        runs.append((f"{cls} census n=4 | classify", stdin, ["classify"]))
    for argv in _MIXED_PIPES:
        runs.append((f"mixed lines | {' '.join(argv)}", _MIXED, argv))
    runs.append(("verify --suite all --max-n 5", "", ["verify", "--suite", "all", "--max-n", "5"]))
    return runs


def _capture(stdin: str, argv) -> tuple[int, str]:
    """(exit code, stdout) of one run from empty census stores."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with (
            contextlib.redirect_stdout(out),
            mock.patch.dict(census._records, clear=True),
            mock.patch.dict(census._levels, clear=True),
        ):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _run(stdin: str, argv) -> str:
    code, out = _capture(stdin, argv)
    return f"{code} {hashlib.sha256(out.encode()).hexdigest()}"


def _key_list_digest(cls: str) -> str:
    """sha256 of the sorted census keys of ``cls`` at n = 8, one hex per line."""
    keys = enumerate_class(cls, 8).keys
    return hashlib.sha256("\n".join(k.hex for k in keys).encode()).hexdigest()


GOLDEN = {
    'enumerate --class split --n 0': '0 cd9fc063ef9be203911860a18b62cfac84b19badc50447730e9e9403dc63111b',
    'enumerate --class split --n 0 --balance balanced': '0 cd9fc063ef9be203911860a18b62cfac84b19badc50447730e9e9403dc63111b',
    'enumerate --class split --n 0 --balance unbalanced': '0 86fe8ad73838f75e4d3c108d9bb008a8f678afd6e85bd35d465f8e65cef702c2',
    'enumerate --class split --n 0 --stream': '0 b700977f699d66460a8261dbb6e375b463907d9b340e4b9da8472035c142adb1',
    'enumerate --class split --n 0 --count-only': '0 86fe8ad73838f75e4d3c108d9bb008a8f678afd6e85bd35d465f8e65cef702c2',
    'enumerate --class split --n 1': '0 198eb086a8f5ffb1d54b69c63b596617e87b5901a904bc661e4db36e636602ab',
    'enumerate --class split --n 1 --balance balanced': '0 b4fe2d1a490b755e8375770a31eddb566b2be577810764622903392816126a7b',
    'enumerate --class split --n 1 --balance unbalanced': '0 198eb086a8f5ffb1d54b69c63b596617e87b5901a904bc661e4db36e636602ab',
    'enumerate --class split --n 1 --stream': '0 b286f747c7d13a55110c5cde73c031a772ccfbcb6e804488a23cb05ed34c2569',
    'enumerate --class split --n 1 --count-only': '0 b4fe2d1a490b755e8375770a31eddb566b2be577810764622903392816126a7b',
    'enumerate --class split --n 2': '0 62312a57c60086d8899fb2cf9221338c76de8b2fbe5eb16e671bdf0ad2db2afb',
    'enumerate --class split --n 2 --balance balanced': '0 5ce3a669677be0f2afa418c04c5f8bc8f2530bb72fbbdef8f0d969e0f9b2091f',
    'enumerate --class split --n 2 --balance unbalanced': '0 62312a57c60086d8899fb2cf9221338c76de8b2fbe5eb16e671bdf0ad2db2afb',
    'enumerate --class split --n 2 --stream': '0 5c6a77c2d040b5bd17e923b2ad8e6614a348a7a97c71b446ecaca45115c1eb30',
    'enumerate --class split --n 2 --count-only': '0 5ce3a669677be0f2afa418c04c5f8bc8f2530bb72fbbdef8f0d969e0f9b2091f',
    'enumerate --class split --n 3': '0 3540062fe6170967b4f211817879a6a560750f1e778b060cc00119ecf27317ea',
    'enumerate --class split --n 3 --balance balanced': '0 e3659cf3b163e78c8fa1cf857bc27ddfbe1fa65fb688c68203469e397826f33e',
    'enumerate --class split --n 3 --balance unbalanced': '0 3540062fe6170967b4f211817879a6a560750f1e778b060cc00119ecf27317ea',
    'enumerate --class split --n 3 --stream': '0 8ef8d795970f949831bb05d21558641968c4048049b81bc1a39d9d94e00b88fd',
    'enumerate --class split --n 3 --count-only': '0 e3659cf3b163e78c8fa1cf857bc27ddfbe1fa65fb688c68203469e397826f33e',
    'enumerate --class split --n 4': '0 a57de2bc38aeb7409807f0e8d2b916136a79e5b60c30abf1dfe5bd057a1c663b',
    'enumerate --class split --n 4 --balance balanced': '0 18beb5d80a78cc387e8a88c2bd455fab216ac094f4546582d05b2421f8d094e5',
    'enumerate --class split --n 4 --balance unbalanced': '0 911c3f685b5fa3ec9d3cad93a801f6532bf81302e5b37dccadf7e74738d31aea',
    'enumerate --class split --n 4 --stream': '0 b7abb1a006b39cd28e1ea5e05d8a04b92d97bcead6ccc758a6e9618d356dbd89',
    'enumerate --class split --n 4 --count-only': '0 81aa177692dd568850e82913bb518a30369db0733957c8258d89d4ed4e0ebb41',
    'enumerate --class split --n 5': '0 1531821e660526597cb6d96a276abbaad4063c8a5cefd5848f31c3e6b84d9cf1',
    'enumerate --class split --n 5 --balance balanced': '0 34dd8787ee47890d8c449cd51a1b90ca3382bdb97cd479c37255000feb8330dc',
    'enumerate --class split --n 5 --balance unbalanced': '0 defd9272fd8c681e8125f6cd961374a5de48de01809952c13eca8bea886cdffb',
    'enumerate --class split --n 5 --stream': '0 60cbb7cf3106470b1dcce2608e2009cd8c9b302018c6041f137792c6b0fb68e4',
    'enumerate --class split --n 5 --count-only': '0 b2764de04574d6efa39fdc7df032ac670e1106aa3b65d1eb752e13a27d735ee1',
    'enumerate --class split --n 6': '0 91782a4da5f7940684869f0e6f6c067404fcdde0e472895adf5dab89cfbb6e5a',
    'enumerate --class split --n 6 --balance balanced': '0 e31282d74611c1e01bfe246c4a2cc8de49f4b333e4e554ad96cda07cb92a62a4',
    'enumerate --class split --n 6 --balance unbalanced': '0 ef993d16ce75d3599579b647846ffc92eca44dd4131c665f476d9c49fca73ef5',
    'enumerate --class split --n 6 --stream': '0 b6d4d63fa586dbe5c2a64e82a5526eb821d45a3f1924bc9c02a044556099ffdd',
    'enumerate --class split --n 6 --count-only': '0 52ea20c580b599af3637a2211f271ee5635bf9fd534b9c84264ba32e2aa2e623',
    'enumerate --class cover --n 0': '0 f0079a3e1b1714b5d463ae0482140ad04d7a45352532e8c8114435286ef8daf9',
    'enumerate --class cover --n 0 --balance balanced': '0 f0079a3e1b1714b5d463ae0482140ad04d7a45352532e8c8114435286ef8daf9',
    'enumerate --class cover --n 0 --balance unbalanced': '0 55d10adc8541c632caf2b52e18c6a8efb4f62c61652723dffefdbfbbadeb17f5',
    'enumerate --class cover --n 0 --stream': '0 1ab3bacea21b405eba958109a94c796e1b00ca236582b03a602857459b6feb62',
    'enumerate --class cover --n 0 --count-only': '0 55d10adc8541c632caf2b52e18c6a8efb4f62c61652723dffefdbfbbadeb17f5',
    'enumerate --class cover --n 1': '0 7c3ae35318f2bba93ff712aaf1d693e8982229cbc29b0a06d29878c46d4068de',
    'enumerate --class cover --n 1 --balance balanced': '0 ffcd222a9b9031561a967dd1c7c7017ac08d763fe52933336113840dc15a11f3',
    'enumerate --class cover --n 1 --balance unbalanced': '0 7c3ae35318f2bba93ff712aaf1d693e8982229cbc29b0a06d29878c46d4068de',
    'enumerate --class cover --n 1 --stream': '0 4dab00babdea688688b7e197530b35a79d2cf0a172cdb9cc283f053679c71137',
    'enumerate --class cover --n 1 --count-only': '0 ffcd222a9b9031561a967dd1c7c7017ac08d763fe52933336113840dc15a11f3',
    'enumerate --class cover --n 2': '0 e2082a7bb626ee1df21404db78ff89e165423bcb07c48be9b1272cb8f492989a',
    'enumerate --class cover --n 2 --balance balanced': '0 3251d9533a5a3d57792afbb1f9b6006a697c3b693424cca0121ea0580ebe4d12',
    'enumerate --class cover --n 2 --balance unbalanced': '0 e2082a7bb626ee1df21404db78ff89e165423bcb07c48be9b1272cb8f492989a',
    'enumerate --class cover --n 2 --stream': '0 7bdef5110943d6d4763a916476eb3d68fff35c9cdf3c52141caa65c83952fca1',
    'enumerate --class cover --n 2 --count-only': '0 3251d9533a5a3d57792afbb1f9b6006a697c3b693424cca0121ea0580ebe4d12',
    'enumerate --class cover --n 3': '0 79f56ed5d2467bf1cb77679a78847dfab5285bd980b023a4438333e28f70952d',
    'enumerate --class cover --n 3 --balance balanced': '0 b309ad872d9d5ad701cf1330a0e67712028f040ff0dc0147fa31385957f32023',
    'enumerate --class cover --n 3 --balance unbalanced': '0 79f56ed5d2467bf1cb77679a78847dfab5285bd980b023a4438333e28f70952d',
    'enumerate --class cover --n 3 --stream': '0 3eccdd36b8d9475d6d6b30db249e39604c3bb532c7e31a2478a31c89de2811f4',
    'enumerate --class cover --n 3 --count-only': '0 b309ad872d9d5ad701cf1330a0e67712028f040ff0dc0147fa31385957f32023',
    'enumerate --class cover --n 4': '0 18d280b0b7843a394c93cc9108d1ca86a52b9b13625b4d3693b1e19860be18b7',
    'enumerate --class cover --n 4 --balance balanced': '0 d78c0d0050e7a46231846621f2a0891257df3a872fcd2aff8a033d3456e26ca2',
    'enumerate --class cover --n 4 --balance unbalanced': '0 1df9d9b5d17d136c121ca9fb63cb80cc649fa870d0dee3ec5b6427abac4b0c5b',
    'enumerate --class cover --n 4 --stream': '0 9427eea162503286f67b362583834c1d4a047c623b9160ef05ed74ad8448b83d',
    'enumerate --class cover --n 4 --count-only': '0 f0f47a693e448d5534138b4cf9060d7d5beac1e471704b9d12dd5067a4112890',
    'enumerate --class cover --n 5': '0 adbb28d57b742090bdc04d455411fc1391b00fbd95e5045a019c2ccd9bafedb7',
    'enumerate --class cover --n 5 --balance balanced': '0 96caca782f221fbd1093c9c37067caaa6df95fc1325a0d5147d08e4f2bf2ed0b',
    'enumerate --class cover --n 5 --balance unbalanced': '0 367b4e73f6a6c82b4d69b8e862664661fdab70c222913f7999cc3b93bbf5e0bf',
    'enumerate --class cover --n 5 --stream': '0 1a8266452c2a66e9df6a9a784b8d58b78cb4a4d9f3fc31dbdb5514092e0115db',
    'enumerate --class cover --n 5 --count-only': '0 589d3c875850cf7a049b11a3fcba9cfbfd415a6c4457c0d8897acd9d725dc4bd',
    'enumerate --class cover --n 6': '0 d0bffdfda82918041d61197070d16d443d2ffb382b9dfcb3bef7d3058a8a07fc',
    'enumerate --class cover --n 6 --balance balanced': '0 d5917982d3f527cab6fa3055fd773db099df351e28e12f396345be31dcccd5ae',
    'enumerate --class cover --n 6 --balance unbalanced': '0 473f736f12f658e30a83bc5ac1e366691c892a13739d06f5e5dde70b0213680c',
    'enumerate --class cover --n 6 --stream': '0 343d0773059342ff982681014ad775de9dbf31def302d30d16133daf0fc92bbf',
    'enumerate --class cover --n 6 --count-only': '0 097a6e09ddbec791835ce2cb698e53fcd350f643037d3cf6b9589af18bc19f91',
    'enumerate --class xy --n 0': '0 24f2aeb04ae8ae91df6c80c5af83f5feb5138e4e0c32ae573e1be4058cccd1db',
    'enumerate --class xy --n 0 --balance balanced': '0 24f2aeb04ae8ae91df6c80c5af83f5feb5138e4e0c32ae573e1be4058cccd1db',
    'enumerate --class xy --n 0 --balance unbalanced': '0 2a8ee448e2f7a0058bb17c6add00a752b50a5a8bbd0a4942bf52cea4094edca0',
    'enumerate --class xy --n 0 --stream': '0 e6abd84e764572bcec17529fc70ceeb0bda2e1747d365f2b1b2e22603c562a82',
    'enumerate --class xy --n 0 --count-only': '0 2a8ee448e2f7a0058bb17c6add00a752b50a5a8bbd0a4942bf52cea4094edca0',
    'enumerate --class xy --n 1': '0 af114eb5f13e7df757b48455430c62dd9ea78e7f7f4af588709d7207540d7c33',
    'enumerate --class xy --n 1 --balance balanced': '0 ec2c4b51387e7d955a7a54ab14da80ee884d219e4fd2e3b90ee1a276843ac845',
    'enumerate --class xy --n 1 --balance unbalanced': '0 6160b7af7216640735bd9b2665c71eacaacc7e29d80e0fe3c1c156433341734e',
    'enumerate --class xy --n 1 --stream': '0 343aa35edddf883425a70dd6b6c0fed0b32310ffa81ff1f2bc88cc7af82998e9',
    'enumerate --class xy --n 1 --count-only': '0 ec2c4b51387e7d955a7a54ab14da80ee884d219e4fd2e3b90ee1a276843ac845',
    'enumerate --class xy --n 2': '0 31c5731ee716f63e22cef509704df9feed03f145a6525dce3dac186990a77e46',
    'enumerate --class xy --n 2 --balance balanced': '0 175292403faa5cea3cb69540f0ec46d28420a0801077960d3d3623fd75afb677',
    'enumerate --class xy --n 2 --balance unbalanced': '0 a25fbcd8f89339692f5e1484f1ae8e7885da595374a3a9c22c2df729f08afcd0',
    'enumerate --class xy --n 2 --stream': '0 9f6439080f8fda7c22ea80854f272bf58d18b54baca8323b5efaa21012a8532f',
    'enumerate --class xy --n 2 --count-only': '0 175292403faa5cea3cb69540f0ec46d28420a0801077960d3d3623fd75afb677',
    'enumerate --class xy --n 3': '0 fb535f48ccbe05650c5253e7428337aa4cb58a43f88baa1e7ce80d3b0bad56e7',
    'enumerate --class xy --n 3 --balance balanced': '0 f90c4e7798fcac29b04364e2612f2e9e2353ef0aa1c32fc8079bd12c3a664a35',
    'enumerate --class xy --n 3 --balance unbalanced': '0 54fe7250d153e21ba569fc0266b0b63303d1bde9fe0674e6075a68caadd61b0d',
    'enumerate --class xy --n 3 --stream': '0 2d825881a46bbff95db969168bc63933c3d7d8dedae1a8ddbe9daa90b2ab7c4d',
    'enumerate --class xy --n 3 --count-only': '0 f90c4e7798fcac29b04364e2612f2e9e2353ef0aa1c32fc8079bd12c3a664a35',
    'enumerate --class xy --n 4': '0 76d89da66d485cbd8008c9117436b109bdf2c96be385407edba58ca8a8be1561',
    'enumerate --class xy --n 4 --balance balanced': '0 2e0065d40e42c4b027008e62c3365f2c452c0bc5e38b7c58886f56d83191f16a',
    'enumerate --class xy --n 4 --balance unbalanced': '0 d455e4872575534311e71c3a08a3b2f9c7dd72c69df024457947a2cb0cb0897f',
    'enumerate --class xy --n 4 --stream': '0 6180aad80414b02331622951db47f4efc6953fae0fa62fca2a5c0cbc10f74b69',
    'enumerate --class xy --n 4 --count-only': '0 d1fc432393511698c04e381da91c9dd72ce095fd6241f83b7e350e0b5f4a88cc',
    'enumerate --class xy --n 5': '0 187fc07ab53d73d2b0bb8994b1fbc86e6fae6739aa731f3e9ce67f883b1769eb',
    'enumerate --class xy --n 5 --balance balanced': '0 aa95c674299e5bb689dea9ff394ec659b35ddf338b391034ec13df5a7d1f2b30',
    'enumerate --class xy --n 5 --balance unbalanced': '0 6fe0d5f5cfd6f05f2d108f59775ab733ffaf9e1bab7fe57bd09577f9c2adb3ee',
    'enumerate --class xy --n 5 --stream': '0 874f19c48558927fd86fe64f635c8e6ae1f7b663098bf8d53c091234bdde2ac1',
    'enumerate --class xy --n 5 --count-only': '0 ace31e13064a368ce43cd55b8530af697897b60c5ff16e7223eaa06e9af20808',
    'enumerate --class xy --n 6': '0 8794e0d426f06ccd2301b91857d73a13e3b37b488cdd28ec2e18ef8b42148241',
    'enumerate --class xy --n 6 --balance balanced': '0 6c30593b27100cd5d16ce8cb2e891f02ff735af170da4e7841e8e1824ea6be52',
    'enumerate --class xy --n 6 --balance unbalanced': '0 592685b79f6fcf838f72ed8f7115d3edccca235966bed7587a585709ef3dcc4c',
    'enumerate --class xy --n 6 --stream': '0 d3a7fc9e1ad3ce08ceb0bf1de1420ae2cbd50e9586bf0bb209af58d881df01f2',
    'enumerate --class xy --n 6 --count-only': '0 1c2e42848083a3dbbae5662f9cb0e123dc59a1c1cef693bd4352e8fa870098a3',
    'enumerate --class poset --n 0': '0 2f7e874f49c894e39b458ed46defb43dc49eb2faf29c8385c952536045f25846',
    'enumerate --class poset --n 0 --balance balanced': '0 2f7e874f49c894e39b458ed46defb43dc49eb2faf29c8385c952536045f25846',
    'enumerate --class poset --n 0 --balance unbalanced': '0 4394e512be4a1c9e34fd79a908d122b632774f203969053d43b04c34763c3dc7',
    'enumerate --class poset --n 0 --stream': '0 b7ff13437c1572eab2039cee27df575e3c9e4df8d3ca71dba926ded59b2de140',
    'enumerate --class poset --n 0 --count-only': '0 4394e512be4a1c9e34fd79a908d122b632774f203969053d43b04c34763c3dc7',
    'enumerate --class poset --n 1': '0 81fc8a244c555c7b0ce7ee8ff25cd65eb92c0085b438dcf9157e98b2a4cee72c',
    'enumerate --class poset --n 1 --balance balanced': '0 04c5cee0a5451178c979c96d533be6855b725883185c0d40db162a6a5e38362d',
    'enumerate --class poset --n 1 --balance unbalanced': '0 81fc8a244c555c7b0ce7ee8ff25cd65eb92c0085b438dcf9157e98b2a4cee72c',
    'enumerate --class poset --n 1 --stream': '0 193790160fc80a38f3673a789e4aaaeb3a5ac7f5614ea2d78a69a1c5593cbc08',
    'enumerate --class poset --n 1 --count-only': '0 04c5cee0a5451178c979c96d533be6855b725883185c0d40db162a6a5e38362d',
    'enumerate --class poset --n 2': '0 ea1b6656382f822dde14efe1356919da681824fefd6d49f866b88e4ff803032a',
    'enumerate --class poset --n 2 --balance balanced': '0 5ef0fe68cd02f7246d177ccb87275c5bd35746bb33830ec0ad29166c6c1be57d',
    'enumerate --class poset --n 2 --balance unbalanced': '0 ea1b6656382f822dde14efe1356919da681824fefd6d49f866b88e4ff803032a',
    'enumerate --class poset --n 2 --stream': '0 8e324e23300a4c2413408b788400b3a57991f79dbd10670edad008cc8a63e160',
    'enumerate --class poset --n 2 --count-only': '0 5ef0fe68cd02f7246d177ccb87275c5bd35746bb33830ec0ad29166c6c1be57d',
    'enumerate --class poset --n 3': '0 dfd4e2e8b2b12e3f55268774eca30881fe5d36512fe12fd650abb2b100bb7a5a',
    'enumerate --class poset --n 3 --balance balanced': '0 4cda52dcd1fed7e30d782a9df492f049170fd0e80c6022148bf8e97ae7bab837',
    'enumerate --class poset --n 3 --balance unbalanced': '0 dfd4e2e8b2b12e3f55268774eca30881fe5d36512fe12fd650abb2b100bb7a5a',
    'enumerate --class poset --n 3 --stream': '0 be2ad0d3b5ba1918df23e3401833d5996658437ab812f509b2eeaf58fc5a82c1',
    'enumerate --class poset --n 3 --count-only': '0 4cda52dcd1fed7e30d782a9df492f049170fd0e80c6022148bf8e97ae7bab837',
    'enumerate --class poset --n 4': '0 29625928c85959dce1d18a790345d0c8f2897e11f9d8972a18c2f70c41a86ceb',
    'enumerate --class poset --n 4 --balance balanced': '0 0a6c12366ff384f3e0f82948191bb31d6740b60bd09a44dda6f32cab7b0196fc',
    'enumerate --class poset --n 4 --balance unbalanced': '0 c921968750b0b8f3830eb3d1f504f50eff07a2053260c0dcc810d8af18df61ac',
    'enumerate --class poset --n 4 --stream': '0 d8fc8b045f1fb4447b3291b73fb5d3a1c19f1cd6011e2f6c1ff97da9ad443d58',
    'enumerate --class poset --n 4 --count-only': '0 a7b2ae3f35a680049e7335848c2f7859fbebdf82db205e813685f40d2a264c91',
    'enumerate --class poset --n 5': '0 9cac078fac15df756e818a78f0a26feb78a6ccbcbf90dfd263ad4c8358a435cb',
    'enumerate --class poset --n 5 --balance balanced': '0 f4f9d48bbeb88de7ac770da9f437cdf7b8df81cb4af5ae57261d36ac78822621',
    'enumerate --class poset --n 5 --balance unbalanced': '0 82255e81541e2ffdd21d9c94def9811dfa4a424ab013f5f8cb93997458b92ac5',
    'enumerate --class poset --n 5 --stream': '0 4a4f66df6bcdc5baae0bc18a4e30759c7e70b2b8fc40ab27b9674f31f7b5806d',
    'enumerate --class poset --n 5 --count-only': '0 732723d490fd80723c07441530af9609169cd9d1a70149fbfe05bdd3f9f39646',
    'enumerate --class poset --n 6': '0 7bdc602f817b1540aae8725cbcde3b43beefba7c66f675466feac6b25532ae43',
    'enumerate --class poset --n 6 --balance balanced': '0 b7be1b98ce71ff2c969079598a73d8f82e72610158f69b72cf60e602a6aa83d4',
    'enumerate --class poset --n 6 --balance unbalanced': '0 e398e176829effaa4b5652f51e059dc587c578214cfb05193f8ad8eeeef8189b',
    'enumerate --class poset --n 6 --stream': '0 aa276375e90906120f9a5c6e6b3bd8e361db85d15cd6e236c7561341cafdda07',
    'enumerate --class poset --n 6 --count-only': '0 2eee9be4ab70f095947ae2a8a5b32375d418a6b2b7225d84864f9b87400519c0',
    'enumerate --class split --n 7': '0 47d49c6cdee77b52dd0ffe4190b86d89b928a9dd25b41bd76f0d710680c9274f',
    'enumerate --class cover --n 7': '0 41764f7922e36d905b6f516d09bca1a1ad76a8c753c04c34c348180e99a7341e',
    'enumerate --class xy --n 7': '0 256c47a7c343c20392eab03aa59fee2db4bb1c4a67c71f53f39185527fd8d92a',
    'enumerate --class poset --n 7': '0 667fd5d830559bf2ce6f9b347953cbcaabb23f792c05abd56add2c9852d333a0',
    'enumerate --class split --n 8': '0 da2e2dd5fc05cb39c2430d8f13dd73620fa3d3cd008abe1a70eb3131517a01c5',
    'enumerate --class cover --n 8': '0 c7a6684a82acd34b7c22bca9bb296f14c55eeddbbcd61251d3155bcc7cf128bc',
    'enumerate --class xy --n 8': '0 ed5ffe8112775f3a2171e71f938e0685c4f1b47fd3de6f5c555db8d46f15e23f',
    'enumerate --class poset --n 8': '0 c76568289bc2f6858ead667aba6c503641a5571326270818ee7b8c3a07d0be95',
    'enumerate --class xy --n 0 --no-y-isolates': '0 24f2aeb04ae8ae91df6c80c5af83f5feb5138e4e0c32ae573e1be4058cccd1db',
    'enumerate --class xy --n 1 --no-y-isolates': '0 675414cef2355c9659483b37ab72049f02ae47810caf962e82283805400ad253',
    'enumerate --class xy --n 2 --no-y-isolates': '0 8b98939024a0d625f66922927d4f70ff2dfdf00c3431425693fc6d31ebee0915',
    'enumerate --class xy --n 3 --no-y-isolates': '0 979eaa90be7662055cfac8b7245433370771989bd1d95ea2cba315bcb0a94f1f',
    'enumerate --class xy --n 4 --no-y-isolates': '0 a815b3082a805eb0623dea77468e6e71480d15892e33c3f774a22d29825e1bdb',
    'enumerate --class xy --n 5 --no-y-isolates': '0 fab0081f1f99f9abc490da74aef61d9186883149714ab76ca59c244b2f95409b',
    'enumerate --class xy --n 6 --no-y-isolates': '0 139c3d2a48972201d34e0e14bd481a320790df0d24825e2602d84e6f3ca4b06b',
    'enumerate --class xy --n 7 --no-y-isolates': '0 4813924c44ff2f39c21b6d723b69b56e668e4a5a5282b5e78aa6030366e2929d',
    'gallery --n 5': '0 4e7e3c0eda2ecea7c7e1afdb861f089c1648905dedaaa5b12a2cbc5b29ae248b',
    'split census n=4 | classify': '0 09fcc51ce7ca7026544ef3fd86f40d6320bb6d15ca2ef59818771e6c433610c7',
    'Bg | map --from split --to cover': '0 37c0e1198ba69dbeb2790366bc87ad94e6ad2cb4107636f1fd88ebc234ee6390',
    '{"class":"xy","nx":1,"ny":1,"edges":[[0,0]]} | map --from xy --to split-shift': '0 b734b86551d8f157402b79fcfd8b82fd6e522b8f03adb0dc29a0841f4a0085bb',
    'CF | compile --class split --direction down': '0 90d0d07c30f9b25a1f724bf13a4326c91de3cdfc89d0571a9aa72a455f5b7523',
    '{"class":"poset","n0":0,"n1":0,"below":[]} | compile --class poset --direction up --n 2': '0 76af2fe66d0e8b9fee33117e8d697ebb32257c0b730fb5d3ff51a80ceafe2eee',
    'split census n=4 | compile --class split --direction down': '3 70080035af12bd4f54307d51563b4b6deea70e3c62c023e55015646b644d293f',
    'cover census n=4 | compile --class cover --direction down': '3 a88b50cca41dc1f12ca0d05f8638a4be35827281ffd520a46712f3be0b951fbb',
    'xy census n=4 | compile --class xy --direction down': '3 51d8faf60c2b05df42f82de348a72fb2ec524cc39c0043b829c400193aec145d',
    'poset census n=4 | compile --class poset --direction down': '3 ab8c5b410b44d36d359d6cb71fdb7bf44f1c07ea58ec4f8f43bf74ca6e046d3c',
    'split census n=4 | compile --class split --direction up --n 5': '0 ccf38af87419d97c5ff7b2012adde2a50bdc1f02002a82504d5c62f59a3a7a50',
    'cover census n=4 | compile --class cover --direction up --n 5': '0 3fce80f7865d8d8d860485a7e113b48d415effe8f922407e1640d052b5f6053c',
    'xy census n=4 | compile --class xy --direction up --n 5': '3 df5a23e94119d1ceaafb2392a8250c6287ced4f905fd904d660eb04d1b74ce48',
    'poset census n=4 | compile --class poset --direction up --n 5': '0 20fe7ecc75bec82e052f6f0459146e2b6e6c5f615e7cb57d4dada6b3665c4f53',
    'cover census n=4 | map --from cover --to split': '0 83c2210b5b97926adfd6eb40186469f6f1b8ecc90e4c7ce5f3102737b53136d5',
    'split census n=4 | map --from split --to xy-shift': '3 75c054a3b4b7edf43491526b5ff453f7a04711581dc2731b6a14b747bc5263bd',
    'cover census n=4 | map --from split --to cover --inverse': '0 83c2210b5b97926adfd6eb40186469f6f1b8ecc90e4c7ce5f3102737b53136d5',
    'cover census n=4 | classify': '0 02917e7d677d16e7fb3257d4fbf48eee5d5dbf4da51703c0c3f25eafb200ca1c',
    'xy census n=4 | classify': '3 802351bf32430b21324f74057d476bccc52fef8cb2b8fb2944e2af16dbb41841',
    'poset census n=4 | classify': '0 a031b66f179765e3e09b8edff9b567b0efd1bc2784270c528f1536eaa79b61d1',
    'mixed lines | classify': '3 0e468bcfe2ee01bdef4c4b028cca4ceafe1f83367ff9135372e3da0128f518e8',
    'mixed lines | classify --class split': '3 1e322da0472e0255c2dee564cfc0104d76235d4fcb9385e2c7299bbf5c9532b7',
    'mixed lines | map --from split --to cover': '3 45a0ca6516b0f79513eeadc85633463639ba49f6387533e5ae20ce215ed0ac2d',
    'mixed lines | compile --class split --direction down': '3 c7cafaca4366bb5bc6365c309bd27872f0e227d6a695e242f71c38e0bdd84bdf',
    'mixed lines | compile --class split --direction up --n 6': '3 99fb3f9bd6479b59520fd269745170dec5f31d786db13dad21af66610e27dec7',
    'verify --suite all --max-n 5': '0 d3e3e9f6f881e390578be429fd6910964295e6a6676238964d3c4583e41f4a2a',
}

# sha256 of the sorted census key list at n = 8 (xy without --no-y-isolates)
GOLDEN_KEYS_8 = {
    'split': '567d7723ba13304b8f6a9cbe3cb1c2b512bc6a983dab79632584c66838419016',
    'cover': '80de6287890129c562e5acf4b6239f540303ad10f1dc48848cb2c58b5954e04d',
    'xy': '2231eb17bfc767a59db06d194115a7e9c89c8137988c402fb80a13617f891c5b',
    'poset': '65ef63e3d4ec567f194129c76129dbeb53064bb854495c95c13bb63df124d22b',
}


@pytest.mark.parametrize("name,stdin,argv", _runs(), ids=[r[0] for r in _runs()])
def test_golden_transcript(name, stdin, argv):
    assert _run(stdin, argv) == GOLDEN[name]


def test_every_run_has_one_pin():
    # every pin names a run and every run has a pin; a name spelled twice
    # in the GOLDEN literal would silently keep only its last value
    names = [name for name, _, _ in _runs()]
    assert set(GOLDEN) == set(names) and len(set(names)) == len(names)
    literal = next(
        node.value
        for node in ast.parse(Path(__file__).read_text()).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "GOLDEN"
    )
    keys = [key.value for key in literal.keys]
    assert len(set(keys)) == len(keys)


def test_map_pins_print_every_choice_label():
    labels = set()
    for name, stdin, argv in _runs():
        if " census n=4 | " in name and argv[0] in ("map", "compile"):
            for line in _capture(stdin, argv)[1].splitlines():
                labels.update(label for label, _ in json.loads(line).get("choices", ()))
    assert labels >= _CHOICE_LABELS


@pytest.mark.parametrize("cls", _CLASSES)
def test_golden_census_keys_at_eight(cls):
    assert _key_list_digest(cls) == GOLDEN_KEYS_8[cls]


if __name__ == "__main__":
    for name, stdin, argv in _runs():
        print(f"    {name!r}: {_run(stdin, argv)!r},")
    for cls in _CLASSES:
        print(f"    {cls!r}: {_key_list_digest(cls)!r},")

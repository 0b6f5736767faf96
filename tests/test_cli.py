import json
import math

import pytest

from spincorr import chsh, cli
from spincorr.chsh import AngleQuad, SearchSettings, beta_scan, s_value
from spincorr.cli import main
from spincorr.closed_form import CorrelationModel
from spincorr.kinematics import Speed

PINNED_S_POLARIZED_09 = -0.8085870561003567
PINNED_S_UNPOLARIZED_08 = -1.3063175651621299


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Exact stdout of fixed commands in every format, recorded before the three
# point subcommands shared one emitter (the scan commands before the closed
# forms shared one harmonic matrix, verify before the oracle kernels shared
# one channel contraction); any change to formatting or to a value shows here.
PINNED_STDOUT = {
    "coeffs --beta 0.6 --format pretty": (
        "beta = 0.6\n"
        "rho = 0.3333333333333333\n"
        "a = 1.4948148148148148\n"
        "b = 0.7644444444444444\n"
        "c = 2.2592592592592595\n"
        "d = 0.4444444444444444\n"
    ),
    "coeffs --beta 0.6 --format json": (
        "{\n"
        "  \"beta\": 0.6,\n"
        "  \"rho\": 0.333333333333333,\n"
        "  \"a\": 1.49481481481481,\n"
        "  \"b\": 0.764444444444444,\n"
        "  \"c\": 2.25925925925926,\n"
        "  \"d\": 0.444444444444444\n"
        "}\n"
    ),
    "coeffs --beta 0.6 --format csv": (
        "beta,rho,a,b,c,d\n"
        "0.6,0.3333333333333333,1.4948148148148148,0.7644444444444444,2.2592592592592595,0.4444444444444444\n"
    ),
    "prob --model polarized --beta 0.8 --chi1 30 --chi2 200 --format pretty": (
        "model = 'polarized'\n"
        "beta = 0.8\n"
        "chi1_deg = 30.0\n"
        "chi2_deg = 200.0\n"
        "P = 0.46909888512173015\n"
        "in_range = True\n"
        "marginal_1 = 0.6843951537216542\n"
        "marginal_2 = 0.5307448807657295\n"
    ),
    "prob --model polarized --beta 0.8 --chi1 30 --chi2 200 --format json": (
        "{\n"
        "  \"model\": \"polarized\",\n"
        "  \"beta\": 0.8,\n"
        "  \"chi1_deg\": 30.0,\n"
        "  \"chi2_deg\": 200.0,\n"
        "  \"P\": 0.46909888512173,\n"
        "  \"in_range\": true,\n"
        "  \"marginal_1\": 0.684395153721654,\n"
        "  \"marginal_2\": 0.530744880765729\n"
        "}\n"
    ),
    "prob --model polarized --beta 0.8 --chi1 30 --chi2 200 --format csv": (
        "model,beta,chi1_deg,chi2_deg,P,in_range,marginal_1,marginal_2\n"
        "polarized,0.8,30.0,200.0,0.46909888512173015,True,0.6843951537216542,0.5307448807657295\n"
    ),
    "prob --model unpolarized --beta 0.9 --chi1 10 --chi2 250 --format pretty": (
        "model = 'unpolarized'\n"
        "beta = 0.9\n"
        "chi1_deg = 10.0\n"
        "chi2_deg = 250.0\n"
        "P = 0.12309413448317585\n"
        "in_range = True\n"
        "marginal_1 = 0.5\n"
        "marginal_2 = 0.5\n"
    ),
    "prob --model unpolarized --beta 0.9 --chi1 10 --chi2 250 --format json": (
        "{\n"
        "  \"model\": \"unpolarized\",\n"
        "  \"beta\": 0.9,\n"
        "  \"chi1_deg\": 10.0,\n"
        "  \"chi2_deg\": 250.0,\n"
        "  \"P\": 0.123094134483176,\n"
        "  \"in_range\": true,\n"
        "  \"marginal_1\": 0.5,\n"
        "  \"marginal_2\": 0.5\n"
        "}\n"
    ),
    "prob --model unpolarized --beta 0.9 --chi1 10 --chi2 250 --format csv": (
        "model,beta,chi1_deg,chi2_deg,P,in_range,marginal_1,marginal_2\n"
        "unpolarized,0.9,10.0,250.0,0.12309413448317585,True,0.5,0.5\n"
    ),
    "marginal --model polarized --beta 0.8 --chi1 30 --chi2 45 --format pretty": (
        "model = 'polarized'\n"
        "beta = 0.8\n"
        "chi1_deg = 30.0\n"
        "marginal_1 = 0.6843951537216542\n"
        "chi2_deg = 45.0\n"
        "marginal_2 = 0.4364367447343048\n"
    ),
    "marginal --model polarized --beta 0.8 --chi1 30 --chi2 45 --format json": (
        "{\n"
        "  \"model\": \"polarized\",\n"
        "  \"beta\": 0.8,\n"
        "  \"chi1_deg\": 30.0,\n"
        "  \"marginal_1\": 0.684395153721654,\n"
        "  \"chi2_deg\": 45.0,\n"
        "  \"marginal_2\": 0.436436744734305\n"
        "}\n"
    ),
    "marginal --model polarized --beta 0.8 --chi1 30 --chi2 45 --format csv": (
        "model,beta,chi1_deg,marginal_1,chi2_deg,marginal_2\n"
        "polarized,0.8,30.0,0.6843951537216542,45.0,0.4364367447343048\n"
    ),
    "marginal --model unpolarized --beta 0.5 --chi2 70 --format pretty": (
        "model = 'unpolarized'\n"
        "beta = 0.5\n"
        "chi2_deg = 70.0\n"
        "marginal_2 = 0.5\n"
    ),
    "marginal --model unpolarized --beta 0.5 --chi2 70 --format json": (
        "{\n"
        "  \"model\": \"unpolarized\",\n"
        "  \"beta\": 0.5,\n"
        "  \"chi2_deg\": 70.0,\n"
        "  \"marginal_2\": 0.5\n"
        "}\n"
    ),
    "marginal --model unpolarized --beta 0.5 --chi2 70 --format csv": (
        "model,beta,chi2_deg,marginal_2\n"
        "unpolarized,0.5,70.0,0.5\n"
    ),
    "chsh --model polarized --beta 0.9 --angles 0,45,69,200 --format pretty": (
        "model = 'polarized'\n"
        "beta = 0.9\n"
        "angles_deg = (0.0, 45.0, 69.0, 200.0)\n"
        "joint_11 = 0.08388975783530372\n"
        "joint_12p = 0.4388793715305302\n"
        "joint_1p2 = 0.2788295890170235\n"
        "joint_1p2p = 0.5128461356932408\n"
        "marginal_1p = 0.8206813052294111\n"
        "marginal_2 = 0.4245918618859834\n"
        "S = -0.8085870561003567\n"
        "violated = False\n"
        "reference = -1.311\n"
        "gap = 0.5024129438996432\n"
    ),
    "chsh --model polarized --beta 0.9 --angles 0,45,69,200 --format json": (
        "{\n"
        "  \"beta\": 0.9,\n"
        "  \"model\": \"polarized\",\n"
        "  \"angles_deg\": {\n"
        "    \"chi1\": 0.0,\n"
        "    \"chi2\": 45.0,\n"
        "    \"chi1p\": 69.0,\n"
        "    \"chi2p\": 200.0\n"
        "  },\n"
        "  \"terms\": {\n"
        "    \"joint_11\": 0.0838897578353037,\n"
        "    \"joint_12p\": 0.43887937153053,\n"
        "    \"joint_1p2\": 0.278829589017023,\n"
        "    \"joint_1p2p\": 0.512846135693241,\n"
        "    \"marginal_1p\": 0.820681305229411,\n"
        "    \"marginal_2\": 0.424591861885983\n"
        "  },\n"
        "  \"S\": -0.808587056100357,\n"
        "  \"violated\": false,\n"
        "  \"S_reference\": -1.311,\n"
        "  \"gap\": 0.502412943899643\n"
        "}\n"
    ),
    "chsh --model polarized --beta 0.9 --angles 0,45,69,200 --format csv": (
        "beta,model,chi1_deg,chi2_deg,chi1p_deg,chi2p_deg,S,violated\n"
        "0.9,polarized,0.0,45.0,69.0,200.0,-0.8085870561003567,false\n"
    ),
    "chsh --model unpolarized --beta 0.35 --angles 10,20,30,40 --format pretty": (
        "model = 'unpolarized'\n"
        "beta = 0.35\n"
        "angles_deg = (10.0, 20.0, 30.0, 40.0)\n"
        "joint_11 = 0.41209649027530104\n"
        "joint_12p = 0.3873576647253592\n"
        "joint_1p2 = 0.40234699791133144\n"
        "joint_1p2p = 0.38921154238300004\n"
        "marginal_1p = 0.5\n"
        "marginal_2 = 0.5\n"
        "S = -0.18370263415572663\n"
        "violated = False\n"
    ),
    "chsh --model unpolarized --beta 0.35 --angles 10,20,30,40 --format json": (
        "{\n"
        "  \"beta\": 0.35,\n"
        "  \"model\": \"unpolarized\",\n"
        "  \"angles_deg\": {\n"
        "    \"chi1\": 10.0,\n"
        "    \"chi2\": 20.0,\n"
        "    \"chi1p\": 30.0,\n"
        "    \"chi2p\": 40.0\n"
        "  },\n"
        "  \"terms\": {\n"
        "    \"joint_11\": 0.412096490275301,\n"
        "    \"joint_12p\": 0.387357664725359,\n"
        "    \"joint_1p2\": 0.402346997911331,\n"
        "    \"joint_1p2p\": 0.389211542383,\n"
        "    \"marginal_1p\": 0.5,\n"
        "    \"marginal_2\": 0.5\n"
        "  },\n"
        "  \"S\": -0.183702634155727,\n"
        "  \"violated\": false\n"
        "}\n"
    ),
    "chsh --model unpolarized --beta 0.35 --angles 10,20,30,40 --format csv": (
        "beta,model,chi1_deg,chi2_deg,chi1p_deg,chi2p_deg,S,violated\n"
        "0.35,unpolarized,10.0,20.0,29.999999999999996,40.0,-0.18370263415572663,false\n"
    ),
    "scan --model polarized --beta-range 0:1:0.25 --grid-step 30 --format csv": (
        "beta,model,chi1_deg,chi2_deg,chi1p_deg,chi2p_deg,S,violated\n"
        "0.0,polarized,239.85861444792465,35.9015783470041,223.36342295838327,324.0984216529959,-0.5,false\n"
        "0.25,polarized,270.0,44.87246763322626,2.498628051879198e-15,315.1275323667737,-0.7118530261731586,false\n"
        "0.5,polarized,270.0,42.048561946015475,7.31941621835588e-15,317.9514380539845,-0.7520187352397305,false\n"
        "0.75,polarized,270.0,17.57029492283886,0.0,342.42970507716115,-0.7620184188010084,false\n"
        "1.0,polarized,90.0,45.0,1.1227029727636987e-14,315.0,-1.1403985942821562,true\n"
    ),
    "scan --model polarized --beta-range 0:1:0.25 --grid-step 30 --format json": (
        "[\n"
        "  {\n"
        "    \"beta\": 0.0,\n"
        "    \"model\": \"polarized\",\n"
        "    \"angles_deg\": {\n"
        "      \"chi1\": 239.858614447925,\n"
        "      \"chi2\": 35.9015783470041,\n"
        "      \"chi1p\": 223.363422958383,\n"
        "      \"chi2p\": 324.098421652996\n"
        "    },\n"
        "    \"terms\": {\n"
        "      \"joint_11\": 0.25,\n"
        "      \"joint_12p\": 0.25,\n"
        "      \"joint_1p2\": 0.25,\n"
        "      \"joint_1p2p\": 0.25,\n"
        "      \"marginal_1p\": 0.5,\n"
        "      \"marginal_2\": 0.5\n"
        "    },\n"
        "    \"S\": -0.5,\n"
        "    \"violated\": false\n"
        "  },\n"
        "  {\n"
        "    \"beta\": 0.25,\n"
        "    \"model\": \"polarized\",\n"
        "    \"angles_deg\": {\n"
        "      \"chi1\": 270.0,\n"
        "      \"chi2\": 44.8724676332263,\n"
        "      \"chi1p\": 2.4986280518792e-15,\n"
        "      \"chi2p\": 315.127532366774\n"
        "    },\n"
        "    \"terms\": {\n"
        "      \"joint_11\": 0.148223360489328,\n"
        "      \"joint_12p\": 0.243902132242429,\n"
        "      \"joint_1p2\": 0.201689060567048,\n"
        "      \"joint_1p2p\": 0.191912872789971,\n"
        "      \"marginal_1p\": 0.5,\n"
        "      \"marginal_2\": 0.509776187777077\n"
        "    },\n"
        "    \"S\": -0.711853026173159,\n"
        "    \"violated\": false\n"
        "  },\n"
        "  {\n"
        "    \"beta\": 0.5,\n"
        "    \"model\": \"polarized\",\n"
        "    \"angles_deg\": {\n"
        "      \"chi1\": 270.0,\n"
        "      \"chi2\": 42.0485619460155,\n"
        "      \"chi1p\": 7.31941621835588e-15,\n"
        "      \"chi2p\": 317.951438053984\n"
        "    },\n"
        "    \"terms\": {\n"
        "      \"joint_11\": 0.089287062606182,\n"
        "      \"joint_12p\": 0.199274886213052,\n"
        "      \"joint_1p2\": 0.182046973800885,\n"
        "      \"joint_1p2p\": 0.17898454418357,\n"
        "      \"marginal_1p\": 0.5,\n"
        "      \"marginal_2\": 0.503062429617316\n"
        "    },\n"
        "    \"S\": -0.752018735239731,\n"
        "    \"violated\": false\n"
        "  },\n"
        "  {\n"
        "    \"beta\": 0.75,\n"
        "    \"model\": \"polarized\",\n"
        "    \"angles_deg\": {\n"
        "      \"chi1\": 270.0,\n"
        "      \"chi2\": 17.5702949228389,\n"
        "      \"chi1p\": 0.0,\n"
        "      \"chi2p\": 342.429705077161\n"
        "    },\n"
        "    \"terms\": {\n"
        "      \"joint_11\": 0.052364040898098,\n"
        "      \"joint_12p\": 0.0976185681680224,\n"
        "      \"joint_1p2\": 0.120240982067066,\n"
        "      \"joint_1p2p\": 0.141618054234458,\n"
        "      \"marginal_1p\": 0.5,\n"
        "      \"marginal_2\": 0.478622927832608\n"
        "    },\n"
        "    \"S\": -0.762018418801008,\n"
        "    \"violated\": false\n"
        "  },\n"
        "  {\n"
        "    \"beta\": 1.0,\n"
        "    \"model\": \"polarized\",\n"
        "    \"angles_deg\": {\n"
        "      \"chi1\": 90.0,\n"
        "      \"chi2\": 45.0,\n"
        "      \"chi1p\": 1.1227029727637e-14,\n"
        "      \"chi2p\": 315.0\n"
        "    },\n"
        "    \"terms\": {\n"
        "      \"joint_11\": 0.11982085025261,\n"
        "      \"joint_12p\": 0.493386696917201,\n"
        "      \"joint_1p2\": 0.0632170766677044,\n"
        "      \"joint_1p2p\": 0.116583626191218,\n"
        "      \"marginal_1p\": 0.5,\n"
        "      \"marginal_2\": 0.446633450476487\n"
        "    },\n"
        "    \"S\": -1.14039859428216,\n"
        "    \"violated\": true\n"
        "  }\n"
        "]\n"
    ),
    "scan --model unpolarized --beta-range 0:1:0.25 --grid-step 30 --format csv": (
        "beta,model,chi1_deg,chi2_deg,chi1p_deg,chi2p_deg,S,violated\n"
        "0.0,unpolarized,270.0,26.56505117707799,180.0,333.434948822922,-0.7795084971874737,false\n"
        "0.25,unpolarized,270.0,26.39096454550041,180.0,333.6090354544996,-0.8263814864304808,false\n"
        "0.5,unpolarized,270.0,23.89516141507036,180.0,336.10483858492967,-1.0082706959347754,true\n"
        "0.75,unpolarized,270.0,11.705738538678174,180.0,348.29426146132187,-1.3761645476744055,true\n"
        "1.0,unpolarized,90.0,45.0,180.0,315.0,-1.2071067811865475,true\n"
    ),
    "scan --model unpolarized --beta-range 0:1:0.25 --grid-step 30 --format json": (
        "[\n"
        "  {\n"
        "    \"beta\": 0.0,\n"
        "    \"model\": \"unpolarized\",\n"
        "    \"angles_deg\": {\n"
        "      \"chi1\": 270.0,\n"
        "      \"chi2\": 26.565051177078,\n"
        "      \"chi1p\": 180.0,\n"
        "      \"chi2p\": 333.434948822922\n"
        "    },\n"
        "    \"terms\": {\n"
        "      \"joint_11\": 0.222049150281253,\n"
        "      \"joint_12p\": 0.277950849718747,\n"
        "      \"joint_1p2\": 0.138196601125011,\n"
        "      \"joint_1p2p\": 0.138196601125011,\n"
        "      \"marginal_1p\": 0.5,\n"
        "      \"marginal_2\": 0.5\n"
        "    },\n"
        "    \"S\": -0.779508497187474,\n"
        "    \"violated\": false\n"
        "  },\n"
        "  {\n"
        "    \"beta\": 0.25,\n"
        "    \"model\": \"unpolarized\",\n"
        "    \"angles_deg\": {\n"
        "      \"chi1\": 270.0,\n"
        "      \"chi2\": 26.3909645455004,\n"
        "      \"chi1p\": 180.0,\n"
        "      \"chi2p\": 333.6090354545\n"
        "    },\n"
        "    \"terms\": {\n"
        "      \"joint_11\": 0.217757614026151,\n"
        "      \"joint_12p\": 0.282242385973849,\n"
        "      \"joint_1p2\": 0.119051642758608,\n"
        "      \"joint_1p2p\": 0.119051642758608,\n"
        "      \"marginal_1p\": 0.5,\n"
        "      \"marginal_2\": 0.5\n"
        "    },\n"
        "    \"S\": -0.826381486430481,\n"
        "    \"violated\": false\n"
        "  },\n"
        "  {\n"
        "    \"beta\": 0.5,\n"
        "    \"model\": \"unpolarized\",\n"
        "    \"angles_deg\": {\n"
        "      \"chi1\": 270.0,\n"
        "      \"chi2\": 23.8951614150704,\n"
        "      \"chi1p\": 180.0,\n"
        "      \"chi2p\": 336.10483858493\n"
        "    },\n"
        "    \"terms\": {\n"
        "      \"joint_11\": 0.208302196455927,\n"
        "      \"joint_12p\": 0.291697803544073,\n"
        "      \"joint_1p2\": 0.0375624555766854,\n"
        "      \"joint_1p2p\": 0.0375624555766854,\n"
        "      \"marginal_1p\": 0.5,\n"
        "      \"marginal_2\": 0.5\n"
        "    },\n"
        "    \"S\": -1.00827069593478,\n"
        "    \"violated\": true\n"
        "  },\n"
        "  {\n"
        "    \"beta\": 0.75,\n"
        "    \"model\": \"unpolarized\",\n"
        "    \"angles_deg\": {\n"
        "      \"chi1\": 270.0,\n"
        "      \"chi2\": 11.7057385386782,\n"
        "      \"chi1p\": 180.0,\n"
        "      \"chi2p\": 348.294261461322\n"
        "    },\n"
        "    \"terms\": {\n"
        "      \"joint_11\": 0.231967450115436,\n"
        "      \"joint_12p\": 0.268032549884564,\n"
        "      \"joint_1p2\": -0.170049723952638,\n"
        "      \"joint_1p2p\": -0.170049723952638,\n"
        "      \"marginal_1p\": 0.5,\n"
        "      \"marginal_2\": 0.5\n"
        "    },\n"
        "    \"S\": -1.37616454767441,\n"
        "    \"violated\": true\n"
        "  },\n"
        "  {\n"
        "    \"beta\": 1.0,\n"
        "    \"model\": \"unpolarized\",\n"
        "    \"angles_deg\": {\n"
        "      \"chi1\": 90.0,\n"
        "      \"chi2\": 45.0,\n"
        "      \"chi1p\": 180.0,\n"
        "      \"chi2p\": 315.0\n"
        "    },\n"
        "    \"terms\": {\n"
        "      \"joint_11\": 0.0732233047033631,\n"
        "      \"joint_12p\": 0.426776695296637,\n"
        "      \"joint_1p2\": 0.0732233047033631,\n"
        "      \"joint_1p2p\": 0.0732233047033632,\n"
        "      \"marginal_1p\": 0.5,\n"
        "      \"marginal_2\": 0.5\n"
        "    },\n"
        "    \"S\": -1.20710678118655,\n"
        "    \"violated\": true\n"
        "  }\n"
        "]\n"
    ),
    "verify --format pretty": (
        "== reference points ==\n"
        "polarized beta=0.9 angles_deg=(0.0, 45.0, 69.0, 200.0): S_computed = -0.8085870561003567, S_reference = -1.311, gap = 0.502413 (informational)\n"
        "unpolarized beta=0.8 angles_deg=(0.0, 45.0, 210.0, 15.0): S_computed = -1.3063175651621297, S_reference = -1.167, gap = 0.139318 (informational)\n"
        "== internal identities ==\n"
        "[pass] polarized four-pair sum equals 1: max error 4.441e-16 (tolerance 1.0e-12)\n"
        "[pass] unpolarized four-pair sum equals 1: max error 6.661e-16 (tolerance 1.0e-12)\n"
        "[pass] polarized normalization equals brute four-pair sum: max error 2.842e-14 (tolerance 1.0e-12)\n"
        "[pass] unpolarized normalization equals brute four-pair sum: max error 5.329e-15 (tolerance 1.0e-12)\n"
        "[pass] polarized marginal 1 equals defining sum: max error 2.220e-16 (tolerance 1.0e-12)\n"
        "[pass] polarized marginal 2 equals defining sum: max error 2.220e-16 (tolerance 1.0e-12)\n"
        "[pass] unpolarized marginals equal one half: max error 4.441e-16 (tolerance 1.0e-12)\n"
        "[pass] polarized template fit residual at beta=0.3: max error 8.091e-16 (tolerance 1.0e-09)\n"
        "[pass] unpolarized template fit residual at beta=0.3: max error 7.556e-16 (tolerance 1.0e-09)\n"
        "[pass] polarized template fit residual at beta=0.6: max error 1.020e-15 (tolerance 1.0e-09)\n"
        "[pass] unpolarized template fit residual at beta=0.6: max error 5.277e-16 (tolerance 1.0e-09)\n"
        "[pass] polarized template fit residual at beta=0.9: max error 8.259e-16 (tolerance 1.0e-09)\n"
        "[pass] unpolarized template fit residual at beta=0.9: max error 6.034e-16 (tolerance 1.0e-09)\n"
        "== oracle fit versus closed form (informational) ==\n"
        "polarized beta=0.3: scale=1.41739 residual=8.091e-16 verdict=DISAGREE\n"
        "  fitted/scale = ['+1.410265', '-0.000000', '+1.478359', '+0.000000']\n"
        "  closed form  = ['+1.151660', '+0.194082', '+1.619621', '+0.177109']\n"
        "  rel. deviation = ['1.60e-01', '1.20e-01', '8.72e-02', '1.09e-01']\n"
        "unpolarized beta=0.3: scale=0.920181 residual=7.556e-16 verdict=DISAGREE\n"
        "  fitted/scale = ['-1.274549', '+0.210547', '+6.179804']\n"
        "  closed form  = ['-3.250884', '+1.106200', '+4.550000']\n"
        "  rel. deviation = ['4.34e-01', '1.97e-01', '3.58e-01']\n"
        "polarized beta=0.6: scale=1.05055 residual=1.020e-15 verdict=DISAGREE\n"
        "  fitted/scale = ['+1.880259', '-0.000000', '+2.350324', '+0.000000']\n"
        "  closed form  = ['+1.494815', '+0.764444', '+2.259259', '+0.444444']\n"
        "  rel. deviation = ['1.71e-01', '3.38e-01', '4.03e-02', '1.97e-01']\n"
        "unpolarized beta=0.6: scale=5.0696 residual=5.277e-16 verdict=DISAGREE\n"
        "  fitted/scale = ['-2.513836', '+0.041988', '+5.270417']\n"
        "  closed form  = ['-3.634176', '+1.619200', '+3.200000']\n"
        "  rel. deviation = ['3.08e-01', '4.34e-01', '5.70e-01']\n"
        "polarized beta=0.9: scale=0.55742 residual=8.259e-16 verdict=DISAGREE\n"
        "  fitted/scale = ['+3.034182', '-0.000000', '+6.960892', '+0.000000']\n"
        "  closed form  = ['+1.450533', '+3.565415', '+2.668805', '+1.019653']\n"
        "  rel. deviation = ['4.44e-01', '1.00e+00', '1.20e+00', '2.86e-01']\n"
        "unpolarized beta=0.9: scale=322.23 residual=6.034e-16 verdict=DISAGREE\n"
        "  fitted/scale = ['-3.071155', '-2.985513', '+18.760376']\n"
        "  closed form  = ['-1.992036', '+3.122200', '+0.950000']\n"
        "  rel. deviation = ['3.46e-01', '1.96e+00', '5.70e+00']\n"
        "== cross check: trace expression vs spin average ==\n"
        "beta=0.3: scale=-56.9741 max rel deviation=3.148e-01 [DISAGREE]\n"
        "beta=0.6: scale=-63.2656 max rel deviation=6.952e-02 [DISAGREE]\n"
        "beta=0.9: scale=-35.3632 max rel deviation=2.647e-01 [DISAGREE]\n"
        "identities PASS\n"
    ),
}


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT))
def test_stdout_pinned(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert out == PINNED_STDOUT[command]


class TestCoeffs:
    def test_rest_frame(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--beta", "0", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["rho"] == 0.0
        assert (data["a"], data["b"], data["c"], data["d"]) == (1.0, 0.0, 1.0, 0.0)

    def test_lightlike(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--beta", "1", "--format", "json")
        data = json.loads(out)
        assert (data["a"], data["b"], data["c"], data["d"]) == (1.0, 10.0, 1.0, 2.0)

    def test_rho_at_06(self, capsys):
        _, out, _ = run(capsys, "coeffs", "--beta", "0.6", "--format", "json")
        assert json.loads(out)["rho"] == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_bad_beta_exits_1(self, capsys):
        code, out, err = run(capsys, "coeffs", "--beta", "1.5")
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_pretty_goes_to_stdout_only(self, capsys):
        code, out, err = run(capsys, "coeffs", "--beta", "0.5")
        assert code == 0
        assert "rho" in out
        assert err == ""

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--beta", "1", "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "beta,rho,a,b,c,d"
        assert [float(c) for c in row.split(",")] == [1.0, 1.0, 1.0, 10.0, 1.0, 2.0]


class TestProb:
    def test_unpolarized_rest_frame(self, capsys):
        _, out, _ = run(
            capsys, "prob", "--model", "unpolarized", "--beta", "0",
            "--chi1", "0", "--chi2", "0", "--format", "json",
        )
        data = json.loads(out)
        assert data["P"] == pytest.approx(0.375)
        assert data["in_range"] is True
        assert data["marginal_1"] == 0.5
        assert data["marginal_2"] == 0.5

    def test_polarized_rest_frame_angle_independent(self, capsys):
        _, out, _ = run(
            capsys, "prob", "--model", "polarized", "--beta", "0",
            "--chi1", "17", "--chi2", "123", "--format", "json",
        )
        assert json.loads(out)["P"] == pytest.approx(0.25)

    def test_full_turn_equals_zero_angle(self, capsys):
        _, out_a, _ = run(
            capsys, "prob", "--model", "polarized", "--beta", "0.7",
            "--chi1", "360.0", "--chi2", "90", "--format", "json",
        )
        _, out_b, _ = run(
            capsys, "prob", "--model", "polarized", "--beta", "0.7",
            "--chi1", "0.0", "--chi2", "90", "--format", "json",
        )
        assert json.loads(out_a)["P"] == pytest.approx(json.loads(out_b)["P"], abs=1e-12)

    def test_negative_value_flagged(self, capsys):
        _, out, _ = run(
            capsys, "prob", "--model", "unpolarized", "--beta", "0.8",
            "--chi1", "210", "--chi2", "45", "--format", "json",
        )
        data = json.loads(out)
        assert data["P"] < 0.0
        assert data["in_range"] is False


class TestMarginal:
    def test_unpolarized_always_half(self, capsys):
        _, out, _ = run(
            capsys, "marginal", "--model", "unpolarized", "--beta", "0.9",
            "--chi1", "33", "--chi2", "71", "--format", "json",
        )
        data = json.loads(out)
        assert data["marginal_1"] == 0.5
        assert data["marginal_2"] == 0.5

    def test_polarized_zero_angle(self, capsys):
        _, out, _ = run(
            capsys, "marginal", "--model", "polarized", "--beta", "0.8",
            "--chi1", "0", "--format", "json",
        )
        assert json.loads(out)["marginal_1"] == pytest.approx(0.5)

    def test_requires_an_angle(self, capsys):
        code, _, err = run(capsys, "marginal", "--model", "polarized", "--beta", "0.5")
        assert code == 1
        assert "chi1" in err


@pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
@pytest.mark.parametrize("flag", ("--chi1", "--chi2"))
@pytest.mark.parametrize("command", ("prob", "marginal"))
def test_non_finite_angle_rejected(capsys, command, flag, value):
    angles = {"--chi1": "30", "--chi2": "45", flag: value}
    argv = [command, "--model", "polarized", "--beta", "0.5", "--format", "json"]
    argv += [f"{name}={angle}" for name, angle in angles.items()]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: angle {flag} = {float(value)!r} is not finite\n"


class TestChsh:
    def test_unpolarized_anchor_prints_reference(self, capsys):
        code, out, _ = run(
            capsys, "chsh", "--model", "unpolarized", "--beta", "0.8",
            "--angles", "0,45,210,15",
        )
        assert code == 0
        assert "reference = -1.167" in out
        assert "S = " in out

    def test_unpolarized_anchor_json(self, capsys):
        _, out, _ = run(
            capsys, "chsh", "--model", "unpolarized", "--beta", "0.8",
            "--angles", "0,45,210,15", "--format", "json",
        )
        data = json.loads(out)
        assert data["S"] == pytest.approx(PINNED_S_UNPOLARIZED_08, abs=1e-9)
        assert data["S_reference"] == -1.167
        assert data["gap"] == pytest.approx(abs(PINNED_S_UNPOLARIZED_08 + 1.167), abs=1e-6)

    def test_polarized_anchor_json(self, capsys):
        _, out, _ = run(
            capsys, "chsh", "--model", "polarized", "--beta", "0.9",
            "--angles", "0,45,69,200", "--format", "json",
        )
        data = json.loads(out)
        assert data["S"] == pytest.approx(PINNED_S_POLARIZED_09, abs=1e-9)
        assert data["S_reference"] == -1.311

    def test_rest_frame_polarized(self, capsys):
        _, out, _ = run(
            capsys, "chsh", "--model", "polarized", "--beta", "0",
            "--angles", "0,45,69,200", "--format", "json",
        )
        data = json.loads(out)
        assert data["S"] == pytest.approx(-0.5, abs=1e-12)
        assert data["violated"] is False

    def test_malformed_angles_exit_1(self, capsys):
        code, _, err = run(
            capsys, "chsh", "--model", "polarized", "--beta", "0.5", "--angles", "1,2,3"
        )
        assert code == 1
        assert "angles" in err


class TestUsageErrors:
    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["chsh", "--beta", "0.5", "--angles", "0,0,0,0"])
        assert excinfo.value.code == 2

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_bad_format_choice_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["coeffs", "--beta", "0.5", "--format", "xml"])
        assert excinfo.value.code == 2


class TestScan:
    def test_row_count_for_inclusive_range(self, capsys):
        code, out, err = run(
            capsys, "scan", "--model", "polarized", "--beta-range", "0:1:0.1",
            "--grid-step", "45",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 12  # header + 11 rows
        assert "violation fraction" in err

    def test_csv_round_trip(self, capsys):
        _, out, _ = run(
            capsys, "scan", "--model", "unpolarized", "--beta-range", "0.2:0.8:0.3",
            "--grid-step", "30",
        )
        for line in out.strip().split("\n")[1:]:
            cells = line.split(",")
            result = s_value(
                CorrelationModel(cells[1]),
                Speed(float(cells[0])),
                AngleQuad.from_degrees(*(float(c) for c in cells[2:6])),
            )
            assert result.s_value == pytest.approx(float(cells[6]), abs=1e-12)

    def test_json_terms_recombine(self, capsys):
        _, out, _ = run(
            capsys, "scan", "--model", "unpolarized", "--beta", "0.8",
            "--grid-step", "45", "--format", "json",
        )
        rows = json.loads(out)
        for entry in rows:
            terms = entry["terms"]
            s = (
                terms["joint_11"] - terms["joint_12p"] + terms["joint_1p2"]
                + terms["joint_1p2p"] - terms["marginal_1p"] - terms["marginal_2"]
            )
            assert s == pytest.approx(entry["S"], abs=1e-12)

    def test_needs_beta_or_range(self, capsys):
        code, _, err = run(capsys, "scan", "--model", "polarized")
        assert code == 1
        assert "beta" in err

    # Each bound fails before a speed list or a grid is built: one error
    # line and exit code 1.  The caps are lowered where a missing bound
    # would otherwise run a large search.
    @pytest.mark.parametrize("spec", ("0:inf:1", "nan:1:0.1", "0:1.5:0.1", "0.5:-1:0.1"))
    def test_beta_range_bounds_outside_unit_interval(self, capsys, spec):
        code, out, err = run(capsys, "scan", "--model", "polarized", "--beta-range", spec)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "[0, 1]" in err

    @pytest.mark.parametrize("step", ("0", "-0.1", "inf", "nan"))
    def test_beta_range_step_positive_and_finite(self, capsys, step):
        code, out, err = run(capsys, "scan", "--model", "polarized", "--beta-range", f"0:1:{step}")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "finite step > 0" in err

    def test_beta_range_speed_count_capped(self, capsys, monkeypatch):
        assert len(cli._parse_beta_range("0:1:0.0001")) == cli.MAX_SCAN_SPEEDS
        monkeypatch.setattr(cli, "MAX_SCAN_SPEEDS", 4)
        code, out, err = run(
            capsys, "scan", "--model", "polarized", "--beta-range", "0:1:0.25", "--grid-step", "90",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "more than 4 speeds" in err

    @pytest.mark.parametrize("spec", ("1:0:0.1", "0.5:0.4:0.01"))
    def test_beta_range_without_speeds_named(self, capsys, spec):
        code, out, err = run(capsys, "scan", "--model", "polarized", "--beta-range", spec)
        assert (code, out) == (1, "")
        assert err == f"error: --beta-range {spec!r} holds no speed: lo is above hi\n"

    def test_grid_size_capped(self, capsys, monkeypatch):
        monkeypatch.setattr(chsh, "MAX_GRID_SIZE", 4)
        code, out, err = run(capsys, "scan", "--model", "polarized", "--beta", "0.5", "--grid-step", "45")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "below 90.0 degrees" in err

    def test_writes_to_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys, "scan", "--model", "polarized", "--beta", "0.5",
            "--grid-step", "45", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("beta,model,")


@pytest.fixture(scope="module")
def verify_json(tmp_path_factory):
    target = tmp_path_factory.mktemp("verify") / "report.json"
    code = main(["verify", "--format", "json", "--out", str(target)])
    return code, json.loads(target.read_text())


class TestVerify:
    def test_exit_zero_and_identities_pass(self, verify_json):
        code, report = verify_json
        assert code == 0
        assert report["identities_pass"] is True
        assert all(check["passed"] for check in report["identities"])

    def test_anchors_present(self, verify_json):
        _, report = verify_json
        refs = {a["s_reference"] for a in report["anchors"]}
        assert refs == {-1.311, -1.167}
        computed = {a["model"]: a["s_computed"] for a in report["anchors"]}
        assert computed["polarized"] == pytest.approx(PINNED_S_POLARIZED_09, abs=1e-9)
        assert computed["unpolarized"] == pytest.approx(PINNED_S_UNPOLARIZED_08, abs=1e-9)
        for anchor in report["anchors"]:
            assert anchor["gap"] == pytest.approx(
                abs(anchor["s_computed"] - anchor["s_reference"]), abs=1e-9
            )

    def test_fit_tables_emitted(self, verify_json):
        _, report = verify_json
        assert len(report["consistency"]) == 6  # two models at three speeds
        for entry in report["consistency"]:
            assert entry["residual"] < 1e-9
            assert len(entry["fitted"]) == len(entry["printed"])

    def test_cross_oracle_table_emitted(self, verify_json):
        _, report = verify_json
        assert len(report["cross_oracle"]) == 3
        for entry in report["cross_oracle"]:
            assert entry["max_rel_deviation"] >= 0.0

    def test_strict_cross_oracle_flag(self, capsys):
        # The verbatim trace expression and the spin average disagree, so
        # the dedicated diagnostic flag must exit nonzero and still emit
        # the deviation table.
        code, out, err = run(capsys, "verify", "--strict-cross-oracle")
        assert code != 0
        assert "cross check" in out
        assert "DISAGREE" in out
        assert "strict" in err

    @pytest.mark.parametrize("value", ("nan", "inf", "-inf", "-1", "0"))
    def test_meaningless_tolerance_rejected(self, capsys, value):
        code, out, err = run(capsys, "verify", f"--tolerance={value}")
        assert (code, out) == (1, "")
        assert err == f"error: --tolerance must be finite and > 0, got {float(value)!r}\n"

    def test_json_key_order(self, verify_json):
        # The walker writes each report dataclass in field order.
        _, report = verify_json
        assert list(report) == [
            "anchors", "identities", "consistency", "cross_oracle", "identities_pass", "cross_oracle_agree",
        ]
        record_keys = {
            "anchors": ["model", "beta", "angles_deg", "s_computed", "s_reference", "gap", "terms"],
            "identities": ["name", "max_error", "tolerance", "passed"],
            "consistency": [
                "beta", "model", "fitted", "printed", "relative_deviation", "residual", "scale", "verdict",
            ],
            "cross_oracle": ["beta", "grid_n", "scale", "max_rel_deviation", "max_imag", "agree"],
        }
        for section, keys in record_keys.items():
            assert report[section]
            for record in report[section]:
                assert list(record) == keys, section

    def test_json_values_are_plain(self, verify_json):
        _, report = verify_json
        assert [a["model"] for a in report["anchors"]] == ["polarized", "unpolarized"]
        assert all(isinstance(a["angles_deg"], list) and len(a["terms"]) == 6 for a in report["anchors"])
        for check in report["identities"]:
            assert check["passed"] is (check["max_error"] < check["tolerance"])
        for entry in report["consistency"]:
            assert entry["model"] in ("polarized", "unpolarized")
            assert len(entry["fitted"]) == len(entry["printed"]) == len(entry["relative_deviation"])
            assert all(d >= 0.0 for d in entry["relative_deviation"])

    def test_pretty_sections(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "reference points" in out
        assert "internal identities" in out
        assert "informational" in out


def test_json_walker():
    quad = AngleQuad(0.1, 0.2, 0.3, 1.0 / 3.0)
    payload = {"model": CorrelationModel.POLARIZED, "pair": (1.0 / 3.0, 2), "quad": quad, "flag": True}
    assert cli._plain(payload) == {
        "model": "polarized",
        "pair": [0.333333333333333, 2],
        "quad": {"chi1": 0.1, "chi2": 0.2, "chi1p": 0.3, "chi2p": 0.333333333333333},
        "flag": True,
    }


@pytest.fixture(scope="module")
def rows():
    speeds = [Speed(b) for b in (0.0, 0.4, 0.8)]
    return beta_scan(CorrelationModel.UNPOLARIZED, speeds, SearchSettings(grid_step_deg=15.0))


class TestScanSerialization:
    def test_csv_schema(self, rows):
        text = cli.scan_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "beta,model,chi1_deg,chi2_deg,chi1p_deg,chi2p_deg,S,violated"
        assert len(lines) == 1 + len(rows)

    def test_csv_round_trip_recomputes_s(self, rows):
        lines = cli.scan_csv(rows).strip().split("\n")[1:]
        for line in lines:
            cells = line.split(",")
            beta = float(cells[0])
            model = CorrelationModel(cells[1])
            quad = AngleQuad.from_degrees(*(float(c) for c in cells[2:6]))
            s_col = float(cells[6])
            recomputed = s_value(model, Speed(beta), quad)
            assert recomputed.s_value == pytest.approx(s_col, abs=1e-12)
            assert (cells[7] == "true") == recomputed.violated

    def test_json_terms_recombine(self, rows):
        for entry in cli.scan_json_payload(rows):
            terms = entry["terms"]
            s = (
                terms["joint_11"]
                - terms["joint_12p"]
                + terms["joint_1p2"]
                + terms["joint_1p2p"]
                - terms["marginal_1p"]
                - terms["marginal_2"]
            )
            assert s == pytest.approx(entry["S"], abs=1e-12)


class TestDeterminism:
    def test_verify_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(["verify", "--format", "json", "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_scan_byte_identical(self, capsys):
        outputs = []
        for _ in range(2):
            _, out, _ = run(
                capsys, "scan", "--model", "unpolarized", "--beta-range", "0:0.9:0.3",
                "--grid-step", "30", "--format", "json",
            )
            outputs.append(out)
        assert outputs[0] == outputs[1]

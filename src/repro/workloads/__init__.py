"""Workload models: uBench, SPEC CPU 2017, PARSEC, DNN, and stressmarks.

A workload is described by the four observables ATM cares about (activity,
margin stress, di/dt activity, memory-boundedness); see
:mod:`repro.workloads.base`.  :mod:`repro.workloads.registry` provides
name-based lookup; :mod:`repro.workloads.classification` implements the
paper's Table II critical/background taxonomy.
"""

from .base import IDLE, Suite, Workload
from .classification import (
    AppClass,
    MemBehavior,
    Role,
    TABLE2,
    classify,
    is_critical,
    may_colocate,
)
from .dnn import BABI, DNN_SUITE, MLP, RESNET, SEQ2SEQ, SQUEEZENET, VGG19
from .parsec import (
    BLACKSCHOLES,
    BODYTRACK,
    FACESIM,
    FERRET,
    FLUIDANIMATE,
    LU_CB,
    PARSEC_SUITE,
    RAYTRACE,
    STREAMCLUSTER,
    SWAPTIONS,
    VIPS,
)
from .registry import (
    ALL_WORKLOADS,
    by_suite,
    get_workload,
    medium_and_light_applications,
    realistic_applications,
)
from .spec import GCC, LEELA, MCF, SPEC_SUITE, X264
from .stressmark import (
    BEYOND_WORST_VIRUS,
    ISA_SUITE,
    POWER_VIRUS,
    STRESS_BATTERY,
    VOLTAGE_VIRUS,
)
from .ubench import COREMARK, DAXPY, DAXPY_SMT4, STREAM, UBENCH_SUITE

__all__ = [
    "IDLE",
    "Suite",
    "Workload",
    "AppClass",
    "MemBehavior",
    "Role",
    "TABLE2",
    "classify",
    "is_critical",
    "may_colocate",
    "ALL_WORKLOADS",
    "by_suite",
    "get_workload",
    "medium_and_light_applications",
    "realistic_applications",
    "UBENCH_SUITE",
    "COREMARK",
    "DAXPY",
    "DAXPY_SMT4",
    "STREAM",
    "SPEC_SUITE",
    "GCC",
    "MCF",
    "X264",
    "LEELA",
    "PARSEC_SUITE",
    "FERRET",
    "FLUIDANIMATE",
    "FACESIM",
    "LU_CB",
    "STREAMCLUSTER",
    "BLACKSCHOLES",
    "SWAPTIONS",
    "RAYTRACE",
    "BODYTRACK",
    "VIPS",
    "DNN_SUITE",
    "SQUEEZENET",
    "RESNET",
    "VGG19",
    "SEQ2SEQ",
    "BABI",
    "MLP",
    "STRESS_BATTERY",
    "VOLTAGE_VIRUS",
    "POWER_VIRUS",
    "ISA_SUITE",
    "BEYOND_WORST_VIRUS",
]
